package ckks

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/internal/ring"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// freshCt is a fresh public-key encryption of randMsg(p, 0, stream) under p.
func freshCt(p *Parameters, stream uint64) *Ciphertext {
	_, pk := NewKeyGenerator(p, testSeed()).GenKeyPair()
	return NewEncryptor(p, pk, testSeed()).Encrypt(NewEncoder(p).Encode(randMsg(p, 0, stream)))
}

// wordBlob hand-builds ct in the retired 8-byte word encoding: the full
// form's header with form byte 0, then every residue as a little-endian
// uint64, c0 limbs then c1 limbs.
func wordBlob(t testing.TB, p *Parameters, ct *Ciphertext) []byte {
	t.Helper()
	packed, err := p.MarshalCiphertext(ct, true)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), packed[:ctHeaderLen]...)
	out[5] = 0
	for _, row := range polyRows(ct.Level, ct.C0, ct.C1) {
		for _, c := range row {
			out = binary.LittleEndian.AppendUint64(out, c)
		}
	}
	return out
}

func TestMarshalPackedRoundTrip(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	dec := NewDecryptor(p, sk)

	msg := randMsg(p, 0, 21)
	ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(msg))

	data, err := p.MarshalCiphertext(ct, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != ct.Level || got.Scale != ct.Scale || got.C0.IsNTT || got.C1.IsNTT {
		t.Fatal("metadata lost")
	}
	for i := range ct.C0.Coeffs {
		if !slices.Equal(ct.C0.Coeffs[i], got.C0.Coeffs[i]) || !slices.Equal(ct.C1.Coeffs[i], got.C1.Coeffs[i]) {
			t.Fatalf("coefficient mismatch at limb %d", i)
		}
	}
	// And it still decrypts.
	out := enc.Decode(dec.Decrypt(got))
	if e := maxErr(msg, out); e > 1e-4 {
		t.Fatalf("deserialized ciphertext decrypts with error %g", e)
	}
}

// TestMarshalWordRoundTrip: the retired 8-byte word encoding no longer
// round-trips. A well-formed word blob is refused — also with its form
// byte forged to the packed one — and so is a request to marshal in it.
func TestMarshalWordRoundTrip(t *testing.T) {
	p := testParams
	ct := freshCt(p, 21)
	word := wordBlob(t, p, ct)
	if _, err := p.UnmarshalCiphertext(word); err == nil {
		t.Fatal("word blob accepted")
	}
	word[5] = formFull
	if _, err := p.UnmarshalCiphertext(word); err == nil {
		t.Fatal("word payload under the packed form byte accepted")
	}
	if _, err := p.MarshalCiphertext(ct, false); err == nil {
		t.Fatal("packed=false marshaled")
	}
}

// TestMarshalNTTDomainPreserved: the NTT domain no longer travels. A blob
// whose domain byte claims it is refused, and so is marshalling an
// NTT-domain ciphertext.
func TestMarshalNTTDomainPreserved(t *testing.T) {
	p := testParams
	ct := freshCt(p, 22)
	data, err := p.MarshalCiphertext(ct, true)
	if err != nil {
		t.Fatal(err)
	}
	data[16] = 1
	if _, err := p.UnmarshalCiphertext(data); err == nil {
		t.Fatal("NTT-tagged blob accepted")
	}
	rl := p.RingAt(ct.Level)
	rl.NTT(ct.C0)
	rl.NTT(ct.C1)
	if _, err := p.MarshalCiphertext(ct, true); err == nil {
		t.Fatal("NTT-domain ciphertext marshaled")
	}
}

func TestPackedSizeMatchesDRAMModel(t *testing.T) {
	// The packed wire size must equal the DRAM traffic the paper's memory
	// accounting charges: 2·L·N·44 bits plus the 17-byte header (the
	// seeded form: L·N·44 bits plus header and 24 bytes of seed material).
	p := testParams
	for level := 1; level <= p.MaxLevel(); level++ {
		if got, want := p.CiphertextWireBytes(level), 17+2*level*p.N()*44/8; got != want {
			t.Fatalf("level %d: wire bytes %d, want %d", level, got, want)
		}
		if got, want := p.SeededWireBytes(level), 17+24+level*p.N()*44/8; got != want {
			t.Fatalf("level %d: seeded wire bytes %d, want %d", level, got, want)
		}
	}
	data, err := p.MarshalCiphertext(freshCt(p, 22), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != p.CiphertextWireBytes(p.MaxLevel()) {
		t.Fatalf("blob is %d bytes, CiphertextWireBytes says %d", len(data), p.CiphertextWireBytes(p.MaxLevel()))
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := testParams
	data, err := p.MarshalCiphertext(freshCt(p, 23), true)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"short":          func(d []byte) []byte { return d[:10] },
		"header only":    func(d []byte) []byte { return d[:ctHeaderLen] },
		"bad magic":      func(d []byte) []byte { d[0] = 'X'; return d },
		"bad ver":        func(d []byte) []byte { d[4] = 99; return d },
		"bad logN":       func(d []byte) []byte { d[6] = 3; return d },
		"bad level":      func(d []byte) []byte { d[7] = 200; return d },
		"level 0":        func(d []byte) []byte { d[7] = 0; return d },
		"lower level":    func(d []byte) []byte { d[7]--; return d },
		"zero scale":     func(d []byte) []byte { binary.LittleEndian.PutUint64(d[8:], 0); return d },
		"negative scale": func(d []byte) []byte { binary.LittleEndian.PutUint64(d[8:], math.Float64bits(-1)); return d },
		"NaN scale":      func(d []byte) []byte { binary.LittleEndian.PutUint64(d[8:], math.Float64bits(math.NaN())); return d },
		"inf scale":      func(d []byte) []byte { binary.LittleEndian.PutUint64(d[8:], math.Float64bits(math.Inf(1))); return d },
		"word form":      func(d []byte) []byte { d[5] = 0; return d },
		"seeded form":    func(d []byte) []byte { d[5] = formSeeded; return d },
		"bad form":       func(d []byte) []byte { d[5] = 7; return d },
		"NTT domain":     func(d []byte) []byte { d[16] = 1; return d },
		"bad domain":     func(d []byte) []byte { d[16] = 2; return d },
		"truncated":      func(d []byte) []byte { return d[:len(d)-5] },
		"padded":         func(d []byte) []byte { return append(d, 0) },
		"residue>=q": func(d []byte) []byte {
			for i := ctHeaderLen; i < ctHeaderLen+8; i++ {
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
	if !bytes.Equal(data[ctHeaderLen:], scalarPack(all)) {
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
}

// TestMarshalRejectsWideLimbs: a parameter set whose primes are wider than
// the packed word has no wire form; every packed marshaler refuses it from
// the ring, whatever the residues happen to be.
func TestMarshalRejectsWideLimbs(t *testing.T) {
	spec := TestParams
	spec.LimbBits = PackedWordBits + 1
	p := spec.MustBuild()
	defer p.Close()
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	rl := p.RingAt(2)
	zero := &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: 2, Scale: p.Scale()}
	sct := NewSeededEncryptor(p, sk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 28)))
	for name, marshal := range map[string]func() ([]byte, error){
		"ciphertext": func() ([]byte, error) { return p.MarshalCiphertext(zero, true) },
		"seeded":     func() ([]byte, error) { return p.MarshalSeeded(sct) },
		"public key": func() ([]byte, error) { return p.MarshalPublicKey(pk) },
		"secret key": func() ([]byte, error) { return p.MarshalSecretKey(sk, testSeed()) },
		"eval keys": func() ([]byte, error) {
			return p.MarshalEvaluationKeySet(kg.GenEvaluationKeySet(sk, 2, nil, false, GadgetHybrid))
		},
	} {
		if _, err := marshal(); err == nil || !strings.Contains(err.Error(), "limbs ≤ 44 bits") {
			t.Errorf("%s: %v, want the limb-width error", name, err)
		}
	}
}

// TestMarshalRejectsMalformedCiphertext: in-memory states the wire cannot
// carry — a level outside the chain, a half in the NTT domain — never
// reach it.
func TestMarshalRejectsMalformedCiphertext(t *testing.T) {
	p := testParams
	rl := p.RingAt(2)
	for name, ct := range map[string]*Ciphertext{
		"level 0":         {C0: rl.NewPoly(), C1: rl.NewPoly(), Level: 0, Scale: p.Scale()},
		"level above max": {C0: rl.NewPoly(), C1: rl.NewPoly(), Level: p.MaxLevel() + 1, Scale: p.Scale()},
		"mixed domain":    {C0: &ring.Poly{Coeffs: rl.NewPoly().Coeffs, IsNTT: true}, C1: rl.NewPoly(), Level: 2, Scale: p.Scale()},
		"NTT c1":          {C0: rl.NewPoly(), C1: &ring.Poly{Coeffs: rl.NewPoly().Coeffs, IsNTT: true}, Level: 2, Scale: p.Scale()},
	} {
		if _, err := p.MarshalCiphertext(ct, true); err == nil {
			t.Errorf("%s: marshaled", name)
		}
	}
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
