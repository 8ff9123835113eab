package ckks

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
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
		"short":     func(d []byte) []byte { return d[:10] },
		"bad magic": func(d []byte) []byte { d[0] = 'X'; return d },
		"bad ver":   func(d []byte) []byte { d[4] = 99; return d },
		"bad logN":  func(d []byte) []byte { d[6] = 3; return d },
		"bad level": func(d []byte) []byte { d[7] = 200; return d },
		"bad enc":   func(d []byte) []byte { d[5] = 7; return d },
		"truncated": func(d []byte) []byte { return d[:len(d)-5] },
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

// Property: bit packing is a faithful round trip for arbitrary 44-bit
// words.
func TestBitPackingQuick(t *testing.T) {
	f := func(words []uint64) bool {
		mask := (uint64(1) << PackedWordBits) - 1
		for i := range words {
			words[i] &= mask
		}
		buf := make([]byte, (len(words)*PackedWordBits)/8+16)
		w := newBitWriter(buf)
		for _, v := range words {
			w.write(v, PackedWordBits)
		}
		w.flush()
		r := newBitReader(buf)
		for _, v := range words {
			if r.read(PackedWordBits) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 300)); err != nil {
		t.Error(err)
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
