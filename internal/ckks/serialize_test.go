package ckks

import (
	"bytes"
	"fmt"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func roundTripCt(t *testing.T, packed bool) {
	t.Helper()
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)

	msg := randMsg(p, 0, 21)
	ct := encryptor.Encrypt(enc.Encode(msg))

	data, err := p.MarshalCiphertext(ct, packed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != ct.Level || got.Scale != ct.Scale {
		t.Fatal("metadata lost")
	}
	for i := range ct.C0.Coeffs {
		for j := range ct.C0.Coeffs[i] {
			if ct.C0.Coeffs[i][j] != got.C0.Coeffs[i][j] ||
				ct.C1.Coeffs[i][j] != got.C1.Coeffs[i][j] {
				t.Fatalf("coefficient mismatch at limb %d pos %d", i, j)
			}
		}
	}
	// And it still decrypts.
	out := enc.Decode(dec.Decrypt(got))
	if e := maxErr(msg, out); e > 1e-4 {
		t.Fatalf("deserialized ciphertext decrypts with error %g", e)
	}
}

func TestMarshalWordRoundTrip(t *testing.T)   { roundTripCt(t, false) }
func TestMarshalPackedRoundTrip(t *testing.T) { roundTripCt(t, true) }

func TestPackedSizeMatchesDRAMModel(t *testing.T) {
	// The packed wire size must equal the DRAM traffic the paper's memory
	// accounting charges: 2·L·N·44 bits (+ header).
	p := testParams
	level := p.MaxLevel()
	wantPayload := (2 * level * p.N() * PackedWordBits) / 8
	got := p.CiphertextWireBytes(level)
	if got != headerLen()+wantPayload {
		t.Fatalf("wire bytes %d, want header+%d", got, wantPayload)
	}
	// Packed is ~44/64 the size of the word encoding.
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 22)))
	word, _ := p.MarshalCiphertext(ct, false)
	packed, _ := p.MarshalCiphertext(ct, true)
	ratio := float64(len(packed)) / float64(len(word))
	if ratio < 0.66 || ratio > 0.72 { // 44/64 ≈ 0.6875
		t.Fatalf("packed/word ratio %.3f, want ≈0.6875", ratio)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 23)))
	data, _ := p.MarshalCiphertext(ct, false)

	cases := map[string]func([]byte) []byte{
		"short":      func(d []byte) []byte { return d[:10] },
		"bad magic":  func(d []byte) []byte { d[0] = 'X'; return d },
		"bad ver":    func(d []byte) []byte { d[4] = 99; return d },
		"bad logN":   func(d []byte) []byte { d[6] = 3; return d },
		"bad level":  func(d []byte) []byte { d[7] = 200; return d },
		"bad enc":    func(d []byte) []byte { d[5] = 7; return d },
		"truncated":  func(d []byte) []byte { return d[:len(d)-5] },
		"bad domain": func(d []byte) []byte { d[16] = 2; return d },
		"residue>=q": func(d []byte) []byte {
			for i := headerLen(); i < headerLen()+8; i++ {
				d[i] = 0xFF
			}
			return d
		},
	}
	for name, corrupt := range cases {
		d := append([]byte(nil), data...)
		if _, err := p.UnmarshalCiphertext(corrupt(d)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// scalarPack is the coefficient-at-a-time packer the block codec replaced,
// kept as its reference: a little-endian bit stream, 44 bits per value.
func scalarPack(vals []uint64) []byte {
	out := make([]byte, (len(vals)*PackedWordBits+7)/8)
	var acc uint64
	var bits, off uint
	for _, v := range vals {
		acc |= v << bits
		for bits += PackedWordBits; bits >= 8; bits -= 8 {
			out[off] = byte(acc)
			acc >>= 8
			off++
		}
	}
	if bits > 0 {
		out[off] = byte(acc)
	}
	return out
}

// TestBitPackingQuick: the block codec against the scalar reference —
// byte equality and exact round trip for random 44-bit rows, the all-ones
// and the all-zero row, at every block count from one up.
func TestBitPackingQuick(t *testing.T) {
	rng := quickConfig(t, 0).Rand
	for _, n := range []int{16, 32, 256, 1024, 4096} {
		random := make([]uint64, n)
		ones := make([]uint64, n)
		for i := range random {
			random[i] = rng.Uint64() & packMask
			ones[i] = packMask
		}
		for name, row := range map[string][]uint64{"random": random, "ones": ones, "zero": make([]uint64, n)} {
			buf := make([]byte, packedBytes(1, n))
			if or := packRow(buf, row); or>>PackedWordBits != 0 {
				t.Fatalf("N=%d %s: packRow reports an oversized residue (or %#x)", n, name, or)
			}
			if !bytes.Equal(buf, scalarPack(row)) {
				t.Fatalf("N=%d %s: block packer differs from the scalar reference", n, name)
			}
			got := make([]uint64, n)
			if !unpackRow(got, buf, 1<<PackedWordBits) {
				t.Fatalf("N=%d %s: unpackRow rejects 44-bit values under q = 2^44", n, name)
			}
			if !slices.Equal(got, row) {
				t.Fatalf("N=%d %s: round trip differs", n, name)
			}
		}
		// A residue with a bit above 43 must show in the OR, wherever it sits.
		for pos := 0; pos < packBlockCoeffs; pos++ {
			row := make([]uint64, n)
			row[n-packBlockCoeffs+pos] = 1 << PackedWordBits
			if or := packRow(make([]byte, packedBytes(1, n)), row); or>>PackedWordBits == 0 {
				t.Fatalf("N=%d: oversized residue at block position %d not reported", n, pos)
			}
		}
	}
}

// TestPackedPayloadMatchesScalarReference: a whole multi-row payload (c0
// limbs then c1 limbs, rows fanned across the lanes) is the scalar
// reference's stream of the concatenated coefficients.
func TestPackedPayloadMatchesScalarReference(t *testing.T) {
	p := testParams
	_, pk := NewKeyGenerator(p, testSeed()).GenKeyPair()
	ct := NewEncryptor(p, pk, testSeed()).Encrypt(NewEncoder(p).Encode(randMsg(p, 0, 24)))
	data, err := p.MarshalCiphertext(ct, true)
	if err != nil {
		t.Fatal(err)
	}
	var all []uint64
	for _, row := range polyRows(ct.Level, ct.C0, ct.C1) {
		all = append(all, row...)
	}
	if !bytes.Equal(data[headerLen():], scalarPack(all)) {
		t.Fatal("packed payload differs from the scalar reference stream")
	}
}

// TestUnpackRejectsEveryPosition plants one residue equal to its modulus at
// each of the 16 positions of the first, a middle and the last block of the
// first, middle and last limb of c0 and of c1 — plus a second bad residue
// in the payload's last row — and requires the parser to name the lowest
// bad limb row at every worker count.
func TestUnpackRejectsEveryPosition(t *testing.T) {
	base := testParams
	_, pk := NewKeyGenerator(base, testSeed()).GenKeyPair()
	ct := NewEncryptor(base, pk, testSeed()).Encrypt(NewEncoder(base).Encode(randMsg(base, 0, 25)))
	level, n := ct.Level, base.N()
	rows := polyRows(level, ct.C0, ct.C1)
	moduli := base.RingAt(level).Basis.Moduli
	last := len(rows) - 1

	var blobs [][]byte
	var wants []string
	for _, r := range []int{0, level / 2, level - 1, level, level + level/2, last} {
		for _, block := range []int{0, n / packBlockCoeffs / 2, n/packBlockCoeffs - 1} {
			for pos := 0; pos < packBlockCoeffs; pos++ {
				j := block*packBlockCoeffs + pos
				saved, savedLast := rows[r][j], rows[last][n-1]
				rows[r][j], rows[last][n-1] = moduli[r%level].Q, moduli[last%level].Q
				data, err := base.MarshalCiphertext(ct, true)
				rows[r][j], rows[last][n-1] = saved, savedLast
				if err != nil {
					t.Fatal(err)
				}
				blobs = append(blobs, data)
				wants = append(wants, fmt.Sprintf("residue %d ≥ q_%d (limb row %d)", moduli[r%level].Q, r%level, r))
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		p := TestParams.MustBuild()
		p.SetWorkers(w)
		for i, data := range blobs {
			if _, err := p.UnmarshalCiphertext(data); err == nil || !strings.Contains(err.Error(), wants[i]) {
				t.Fatalf("workers=%d case %d: got %v, want an error naming %q", w, i, err, wants[i])
			}
		}
		p.Close()
	}
}

// TestMarshalRejectsOversizedResidue: a hand-built residue ≥ 2^44 cannot
// be represented in the packed word; every packed marshaler refuses it
// instead of OR-ing it into its neighbour's bits.
func TestMarshalRejectsOversizedResidue(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 26)))
	sct := NewSeededEncryptor(p, sk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 27)))
	// (Evaluation keys share the check but cannot trip it: their rows pass
	// through the inverse NTT, whose output is reduced, on the way out.)
	cases := map[string]struct {
		cell    *uint64
		marshal func() ([]byte, error)
	}{
		"ciphertext": {&ct.C1.Coeffs[ct.Level-1][7], func() ([]byte, error) { return p.MarshalCiphertext(ct, true) }},
		"seeded":     {&sct.C0.Coeffs[0][p.N()-1], func() ([]byte, error) { return p.MarshalSeeded(sct) }},
		"public key": {&pk.P1.Coeffs[1][16], func() ([]byte, error) { return p.MarshalPublicKey(pk) }},
		"secret key": {&sk.S.Coeffs[p.Limbs-1][0], func() ([]byte, error) { return p.MarshalSecretKey(sk, testSeed()) }},
	}
	for name, c := range cases {
		if _, err := c.marshal(); err != nil {
			t.Fatalf("%s: valid value does not marshal: %v", name, err)
		}
		saved := *c.cell
		*c.cell = 1 << PackedWordBits
		if _, err := c.marshal(); err == nil {
			t.Errorf("%s: residue 2^44 marshaled", name)
		}
		*c.cell = saved
	}
	// The word encoding carries 64-bit values and is not affected.
	ct.C0.Coeffs[0][0] = 1 << PackedWordBits
	if _, err := p.MarshalCiphertext(ct, false); err != nil {
		t.Errorf("word encoding: %v", err)
	}
}

func TestMarshalNTTDomainPreserved(t *testing.T) {
	p := testParams
	rl := p.RingAt(2)
	ct := &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: 2, Scale: p.Scale()}
	rl.NTT(ct.C0)
	rl.NTT(ct.C1)
	data, err := p.MarshalCiphertext(ct, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.C0.IsNTT || !got.C1.IsNTT {
		t.Fatal("NTT domain flag lost")
	}
	_ = cmplx.Abs // keep import pattern consistent with the package tests
}

// BenchmarkWireCodec: packed marshal and unmarshal of a full-depth PN16
// ciphertext (the paper's evaluation point), reported in MB/s of wire.
// Parameters are built inside the benchmark, so `go test` never pays for
// them: go test -run=NONE -bench=WireCodec -benchtime=3x ./internal/ckks
func BenchmarkWireCodec(b *testing.B) {
	p := PN16.MustBuild()
	rl := p.Ring()
	ct := &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: p.MaxLevel(), Scale: p.Scale()}
	rl.UniformPoly(prng.NewSource(testSeed(), 1), ct.C0)
	rl.UniformPoly(prng.NewSource(testSeed(), 2), ct.C1)
	data, err := p.MarshalCiphertext(ct, true)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := p.MarshalCiphertext(ct, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := p.UnmarshalCiphertext(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
