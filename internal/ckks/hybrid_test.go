package ckks

// Scheme-layer tests of hybrid (P·Q) key switching: correctness of
// MulRelin / rotations / conjugation over the raised modulus, depth-capped
// keys, hoisting bit-identity, the switch noise against its analytic
// bound, and the geometry accessors.

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/prng"
	"repro/internal/ring"
)

func TestHybridGeometry(t *testing.T) {
	p := testParams
	if p.Alpha() != TestParams.SpecialLimbs {
		t.Fatalf("alpha %d", p.Alpha())
	}
	if len(p.SpecialPrimes()) != p.Alpha() {
		t.Fatalf("special chain %d primes, want %d", len(p.SpecialPrimes()), p.Alpha())
	}
	// Special primes are disjoint from the Q chain and NTT-friendly by
	// construction (ring.NewRing would have rejected them otherwise).
	qset := map[uint64]bool{}
	for _, q := range p.Ring().Basis.Primes() {
		qset[q] = true
	}
	for _, pr := range p.SpecialPrimes() {
		if qset[pr] {
			t.Fatalf("special prime %d collides with the Q chain", pr)
		}
	}
	// Group cover: the groups tile [0, level) exactly.
	for level := 1; level <= p.MaxLevel(); level++ {
		covered := 0
		for j := 0; j < p.DnumAt(level); j++ {
			lo, hi := p.groupRange(level, j)
			if lo != covered || hi <= lo {
				t.Fatalf("level %d group %d: range [%d, %d) does not tile", level, j, lo, hi)
			}
			covered = hi
		}
		if covered != level {
			t.Fatalf("level %d: groups cover %d limbs", level, covered)
		}
	}
	// The QP view shares NTT tables with the base rings (no rebuild).
	rqp := p.RingQPAt(2)
	if rqp.Tables[0] != p.Ring().Tables[0] || rqp.Tables[2] != p.RingP().Tables[0] {
		t.Fatal("QP ring does not share the base rings' NTT tables")
	}
	// Q chain unchanged by the special primes: a spec with SpecialLimbs=0
	// derives the identical Q primes.
	bare := TestParams
	bare.SpecialLimbs = 0
	pb := bare.MustBuild()
	for i, q := range pb.Ring().Basis.Primes() {
		if q != p.Ring().Basis.Primes()[i] {
			t.Fatal("special primes perturbed the Q chain")
		}
	}
}

func TestHybridMulRelin(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 141)
	m2 := randMsg(p, 0, 142)
	prod := ev.Rescale(ev.MulRelin(
		encryptor.Encrypt(enc.Encode(m1)),
		encryptor.Encrypt(enc.Encode(m2)), rlk))
	got := enc.Decode(dec.Decrypt(prod))
	want := make([]complex128, len(m1))
	for i := range want {
		want[i] = m1[i] * m2[i]
	}
	// The switching noise ≈ σ·√(βαN)·(Q_grp/P) is negligible at scale Δ²;
	// 1e-3 leaves slack over the rescale noise floor (~2e-4 at Δ=2^30).
	if e := maxErr(want, got); e > 1e-3 {
		t.Fatalf("hybrid ct x ct multiply error %g", e)
	}
}

// TestHybridNoiseUnderAnalyticBound: the key switch's own error — isolated
// exactly with the secret key, as the decrypted result minus its algebraic
// reference (Dec(a)·Dec(b) for MulRelin, σ_g(Dec(ct)) for a rotation) —
// sits under the analytic bound of keyswitch.go: a per-coefficient
// deviation of σ·√(β·α·N)·Q_grp/P from the Σ D_j·e_j/P term plus
// √((h+1)/12) from the ModDown rounding (r0 + r1·s), taken to a worst-slot
// error as 6·√N·deviation/scale. The error is measured where the switch
// injects it, at the working scale (Δ² for the product): Rescale divides
// noise and scale alike, so this is the switch's share of the rescaled
// product's slot error.
func TestHybridNoiseUnderAnalyticBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec ParamSpec
	}{{"Test", TestParams}, {"PN13", PN13}} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.spec.MustBuild()
			defer p.Close()
			kg := NewKeyGenerator(p, testSeed())
			sk, pk := kg.GenKeyPair()
			enc := NewEncoder(p)
			encryptor := NewEncryptor(p, pk, testSeed())
			dec := NewDecryptor(p, sk)
			ev := NewEvaluator(p)
			rl, level, n := p.Ring(), p.MaxLevel(), float64(p.N())

			qOverP := 0.0 // max over groups of Q_j/P
			for j := 0; j < p.DnumAt(level); j++ {
				ratio := 1.0
				lo, hi := p.groupRange(level, j)
				for i := lo; i < hi; i++ {
					ratio *= float64(rl.Basis.Moduli[i].Q)
				}
				for _, pr := range p.SpecialPrimes() {
					ratio /= float64(pr)
				}
				qOverP = math.Max(qOverP, ratio)
			}
			sw := prng.GaussianSigma * math.Sqrt(float64(p.DnumAt(level)*p.Alpha())*n) * qOverP
			deviation := math.Sqrt(sw*sw + float64(p.HW+1)/12)

			check := func(op string, got *Ciphertext, ref *ring.Poly) {
				t.Helper()
				noise := dec.Decrypt(got)
				rl.Sub(noise.Value, ref, noise.Value)
				worst := maxErr(enc.Decode(noise), make([]complex128, p.Slots()))
				bound := 6 * math.Sqrt(n) * deviation / got.Scale
				t.Logf("%s: worst-slot switch error %.3g, analytic bound %.3g (margin %.1f×)", op, worst, bound, bound/worst)
				if worst == 0 || worst > bound {
					t.Fatalf("%s: switch error %g outside (0, %g]", op, worst, bound)
				}
			}

			ct1 := encryptor.Encrypt(enc.Encode(randMsg(p, 0, 143)))
			ct2 := encryptor.Encrypt(enc.Encode(randMsg(p, 0, 144)))
			m1, m2 := dec.Decrypt(ct1).Value, dec.Decrypt(ct2).Value

			g := p.GaloisElement(1)
			check("Rotate", ev.RotateGalois(ct1, kg.GenRotationKeyHybridAt(g, level)), automorphism(rl, m1, g))

			rl.NTT(m1)
			rl.NTT(m2)
			rl.MulCoeffs(m1, m2, m1)
			rl.INTT(m1)
			check("MulRelin", ev.MulRelin(ct1, ct2, kg.GenRelinearizationKeyHybridAt(level)), m1)
		})
	}
}

func TestHybridRotationAndConjugate(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 146)
	ct := encryptor.Encrypt(enc.Encode(msg))
	slots := p.Slots()

	for _, k := range []int{1, 3, 17} {
		rk := kg.GenRotationKeyHybridAt(p.GaloisElement(k), p.MaxLevel())
		got := enc.Decode(dec.Decrypt(ev.RotateGalois(ct, rk)))
		for i := 0; i < slots; i++ {
			if cmplx.Abs(got[i]-msg[(i+k)%slots]) > 1e-3 {
				t.Fatalf("hybrid rotation by %d wrong at slot %d", k, i)
			}
		}
	}
	rk := kg.GenRotationKeyHybridAt(p.GaloisElementConjugate(), p.MaxLevel())
	got := enc.Decode(dec.Decrypt(ev.RotateGalois(ct, rk)))
	for i := range msg {
		if cmplx.Abs(got[i]-cmplx.Conj(msg[i])) > 1e-3 {
			t.Fatalf("hybrid conjugation wrong at slot %d", i)
		}
	}
}

// TestHybridDepthCapped: a depth-capped hybrid key works at and below its
// depth (including a level that does not divide α — a short last group)
// and panics above it.
func TestHybridDepthCapped(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinearizationKeyHybridAt(3) // 3 % α=2 ≠ 0: short group
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 161)
	m2 := randMsg(p, 0, 162)
	want := make([]complex128, len(m1))
	for i := range want {
		want[i] = m1[i] * m2[i]
	}
	for _, level := range []int{3, 2} {
		ct1 := ev.DropLevel(encryptor.Encrypt(enc.Encode(m1)), level)
		ct2 := ev.DropLevel(encryptor.Encrypt(enc.Encode(m2)), level)
		got := enc.Decode(dec.Decrypt(ev.Rescale(ev.MulRelin(ct1, ct2, rlk))))
		if e := maxErr(want, got); e > 1e-3 {
			t.Fatalf("level %d: hybrid depth-capped multiply error %g", level, e)
		}
	}

	full1 := encryptor.Encrypt(enc.Encode(m1))
	full2 := encryptor.Encrypt(enc.Encode(m2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MulRelin above hybrid key depth must panic at the scheme layer")
		}
		if !strings.Contains(r.(string), "depth") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	ev.MulRelin(full1, full2, rlk)
}

// TestHybridRotateHoistedMatchesSequential: one shared ModUp feeds many
// rotations bit-identically to rotating one at a time.
func TestHybridRotateHoistedMatchesSequential(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 163)
	ct := encryptor.Encrypt(enc.Encode(msg))

	steps := []int{1, 2, 5}
	rks := make([]*RotationKey, len(steps))
	for i, k := range steps {
		rks[i] = kg.GenRotationKeyHybridAt(p.GaloisElement(k), p.MaxLevel())
	}
	hoisted := ev.RotateHoisted(ct, rks)
	r := p.Ring()
	slots := p.Slots()
	for i, rk := range rks {
		seq := ev.RotateGalois(ct, rk)
		if !r.Equal(seq.C0, hoisted[i].C0) || !r.Equal(seq.C1, hoisted[i].C1) {
			t.Fatalf("step %d: hybrid hoisted rotation differs from sequential", steps[i])
		}
		got := enc.Decode(dec.Decrypt(hoisted[i]))
		for j := 0; j < slots; j++ {
			if cmplx.Abs(got[j]-msg[(j+steps[i])%slots]) > 1e-3 {
				t.Fatalf("step %d slot %d wrong", steps[i], j)
			}
		}
	}
}

// TestHybridKeySetRejectsForeignSecret: GenEvaluationKeySet
// derives the secret from the generator's seed; handing it a secret key
// from a different seed would silently build keys for the wrong key pair,
// so it must panic loudly instead.
func TestHybridKeySetRejectsForeignSecret(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	other := NewKeyGenerator(p, prng.SeedFromUint64s(0xDEAD, 0xBEEF)).GenSecretKey()
	defer func() {
		if recover() == nil {
			t.Fatal("hybrid key set over a foreign secret must panic")
		}
	}()
	kg.GenEvaluationKeySet(other, 2, nil, false, GadgetHybrid)
}

// TestHybridRequiresSpecialPrimes: the hybrid surface panics loudly on a
// parameter set without special primes (the public API converts this to a
// typed error before reaching here).
func TestHybridRequiresSpecialPrimes(t *testing.T) {
	bare := TestParams
	bare.SpecialLimbs = 0
	p := bare.MustBuild()
	kg := NewKeyGenerator(p, testSeed())
	defer func() {
		if recover() == nil {
			t.Fatal("hybrid keygen without special primes must panic")
		}
	}()
	kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
}
