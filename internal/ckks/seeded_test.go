package ckks

import (
	"bytes"
	"testing"

	"repro/internal/prng"
	"repro/internal/ring"
)

func seededSetup(t *testing.T) (*Parameters, *SecretKey, *Encoder, *SeededEncryptor, *Decryptor) {
	t.Helper()
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk := kg.GenSecretKey()
	return p, sk, NewEncoder(p), NewSeededEncryptor(p, sk, testSeed()), NewDecryptor(p, sk)
}

func TestSeededEncryptDecrypt(t *testing.T) {
	p, _, enc, se, dec := seededSetup(t)
	msg := randMsg(p, 0, 31)
	sct := se.Encrypt(enc.Encode(msg))
	ct := p.Expand(sct)
	got := enc.Decode(dec.Decrypt(ct))
	if e := maxErr(msg, got); e > 1e-4 {
		t.Fatalf("seeded round trip error %g", e)
	}
}

func TestSeededExpandDeterministic(t *testing.T) {
	p, _, enc, se, _ := seededSetup(t)
	sct := se.Encrypt(enc.Encode(randMsg(p, 0, 32)))
	a := p.Expand(sct)
	b := p.Expand(sct)
	if !p.Ring().AtLevel(sct.Level).Equal(a.C1, b.C1) {
		t.Fatal("expansion must be deterministic in the seed")
	}
}

// TestSeededMarshalWorkerInvariance: the compressed blob's bytes do not
// depend on the lane count its rows were packed across (the root
// TestBackendWorkerInvariance cannot pin this one — a KeyOwner draws its
// upload stream base at random).
func TestSeededMarshalWorkerInvariance(t *testing.T) {
	var ref []byte
	for _, w := range []int{1, 2, 8} {
		p := TestParams.MustBuild()
		p.SetWorkers(w)
		sk := NewKeyGenerator(p, testSeed()).GenSecretKey()
		sct := NewSeededEncryptor(p, sk, testSeed()).Encrypt(NewEncoder(p).Encode(randMsg(p, 0, 33)))
		data, err := p.MarshalSeeded(sct)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(data, ref) {
			t.Fatalf("seeded blob differs at workers=%d", w)
		}
	}
}

func TestSeededDistinctMasks(t *testing.T) {
	p, _, enc, se, _ := seededSetup(t)
	m := randMsg(p, 0, 33)
	s1 := se.Encrypt(enc.Encode(m))
	s2 := se.Encrypt(enc.Encode(m))
	if s1.Stream == s2.Stream {
		t.Fatal("stream counter must advance")
	}
	c1a := p.Expand(s1).C1
	c1b := p.Expand(s2).C1
	if p.Ring().AtLevel(s1.Level).Equal(c1a, c1b) {
		t.Fatal("two encryptions share a mask — randomness reuse")
	}
}

func TestSeededWireHalvesTraffic(t *testing.T) {
	p, _, enc, se, dec := seededSetup(t)
	msg := randMsg(p, 0, 34)
	sct := se.Encrypt(enc.Encode(msg))

	data, err := p.MarshalSeeded(sct)
	if err != nil {
		t.Fatal(err)
	}
	full := p.CiphertextWireBytes(sct.Level)
	ratio := float64(len(data)) / float64(full)
	if ratio > 0.52 {
		t.Fatalf("seeded wire size ratio %.3f, want ≈0.5", ratio)
	}

	back, err := p.UnmarshalSeeded(data)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dec.Decrypt(p.Expand(back)))
	if e := maxErr(msg, got); e > 1e-4 {
		t.Fatalf("seeded wire round trip error %g", e)
	}
}

func TestSeededUnmarshalValidation(t *testing.T) {
	p, _, enc, se, _ := seededSetup(t)
	data, _ := p.MarshalSeeded(se.Encrypt(enc.Encode(randMsg(p, 0, 35))))

	bad := append([]byte(nil), data...)
	bad[5] = formFull // strip the seeded marker
	if _, err := p.UnmarshalSeeded(bad); err == nil {
		t.Fatal("non-seeded payload must be rejected")
	}
	if _, err := p.UnmarshalSeeded(data[:20]); err == nil {
		t.Fatal("short payload must be rejected")
	}
	bad = append([]byte(nil), data...)
	bad[16] = 1 // no marshaler writes a domain byte here; re-marshal would not be canonical
	if _, err := p.UnmarshalSeeded(bad); err == nil {
		t.Fatal("nonzero domain byte must be rejected")
	}
	// A full ciphertext must not parse as seeded.
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()
	fullCt := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 36)))
	fullData, _ := p.MarshalCiphertext(fullCt, true)
	if _, err := p.UnmarshalSeeded(fullData); err == nil {
		t.Fatal("full ciphertext must not parse as seeded")
	}
	if _, err := p.UnmarshalCiphertext(data); err == nil {
		t.Fatal("seeded ciphertext must not parse as full")
	}
	// c0 travels in the coefficient domain: an NTT-domain c0 has no wire form.
	sct := se.Encrypt(enc.Encode(randMsg(p, 0, 37)))
	p.RingAt(sct.Level).NTT(sct.C0)
	if _, err := p.MarshalSeeded(sct); err == nil {
		t.Fatal("NTT-domain c0 marshaled")
	}
}

// TestSeededErrorNotDerivableFromWireSeed pins the secrecy split of the
// seeded form: the wire carries (maskSeed, stream), and from those two
// values an attacker must NOT be able to regenerate the Gaussian error —
// otherwise every upload is an errorless RLWE sample (and one known
// plaintext yields the secret key). The actual error is reconstructed
// with the secret key (e = c0 + a·s − m) and compared against the
// attacker's candidates drawn from the transmitted seed; the private
// derived error seed must reproduce it exactly (positive control).
func TestSeededErrorNotDerivableFromWireSeed(t *testing.T) {
	p, sk, enc, se, _ := seededSetup(t)
	msg := randMsg(p, 0, 39)
	pt := enc.Encode(msg)
	sct := se.Encrypt(pt)
	rl := p.RingAt(sct.Level)

	// e = c0 + a·s − m, with a regenerated exactly as the server does.
	a := rl.NewPoly()
	regenMask(rl, sct.Seed, sct.Stream, a)
	skView := &ring.Poly{Coeffs: sk.S.Coeffs[:sct.Level], IsNTT: true}
	as := rl.NewPoly()
	rl.MulCoeffs(a, skView, as)
	rl.INTT(as)
	e := rl.NewPoly()
	rl.Add(sct.C0, as, e)
	rl.Sub(e, pt.Value, e)

	sameAs := func(guess *ring.Poly) bool {
		for j, v := range guess.Coeffs[0] {
			if v != e.Coeffs[0][j] {
				return false
			}
		}
		return true
	}
	// Attacker candidates from wire-visible material only.
	for _, stream := range []uint64{sct.Stream, sct.Stream ^ 0xE, sct.Stream + 1} {
		guess := rl.NewPoly()
		rl.GaussianPoly(prng.NewSource(sct.Seed, stream), guess)
		if sameAs(guess) {
			t.Fatalf("error regenerable from wire seed at stream %d", stream)
		}
	}
	// Positive control: the private error seed reproduces it.
	want := rl.NewPoly()
	rl.GaussianPoly(prng.NewSource(deriveUploadErrorSeed(testSeed()), sct.Stream), want)
	if !sameAs(want) {
		t.Fatal("derived error seed does not reproduce the actual error")
	}
	// And the wire seed is not the root seed.
	if sct.Seed == testSeed() {
		t.Fatal("wire seed equals the root seed")
	}
}

func TestSeededHomomorphismAfterExpand(t *testing.T) {
	p, _, enc, se, dec := seededSetup(t)
	ev := NewEvaluator(p)
	m1 := randMsg(p, 0, 37)
	m2 := randMsg(p, 0, 38)
	ct1 := p.Expand(se.Encrypt(enc.Encode(m1)))
	ct2 := p.Expand(se.Encrypt(enc.Encode(m2)))
	sum := ev.Add(ct1, ct2)
	got := enc.Decode(dec.Decrypt(sum))
	want := make([]complex128, len(m1))
	for i := range want {
		want[i] = m1[i] + m2[i]
	}
	if e := maxErr(want, got); e > 1e-4 {
		t.Fatalf("homomorphic add on expanded ciphertexts: error %g", e)
	}
}
