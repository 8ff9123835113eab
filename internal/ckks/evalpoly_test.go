package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/prng"
)

// deepTestParams is a small-ring, deep-chain spec for exercising the full
// BSGS recursion (giants, splits, baby-ladder scale alignment) cheaply:
// TestParams' geometry with 12 limbs instead of 4.
var deepTestParams = ParamSpec{LogN: 10, LimbBits: 36, Limbs: 12, LogScale: 30, HW: 64, SpecialLimbs: 2}.MustBuild()

// hornerMono evaluates the monomial-coefficient polynomial at z.
func hornerMono(mono []complex128, z complex128) complex128 {
	acc := complex(0, 0)
	for i := len(mono) - 1; i >= 0; i-- {
		acc = acc*z + mono[i]
	}
	return acc
}

// chebEval evaluates Chebyshev-basis coefficients over [lo, hi] at z via
// the three-term recurrence.
func chebEval(cheb []complex128, lo, hi float64, z complex128) complex128 {
	u := (2*z - complex(hi+lo, 0)) / complex(hi-lo, 0)
	tPrev, tCur := complex(1, 0), u
	acc := cheb[0]
	for i := 1; i < len(cheb); i++ {
		acc += cheb[i] * tCur
		tPrev, tCur = tCur, 2*u*tCur-tPrev
	}
	return acc
}

// TestChebyshevCoeffsMatchHorner: the monomial→Chebyshev conversion must
// represent the same polynomial, on and off the interval.
func TestChebyshevCoeffsMatchHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		deg    int
		lo, hi float64
	}{
		{1, -1, 1}, {2, -1, 1}, {5, -3, 7}, {15, -8, 8}, {31, 0.5, 2.5},
	} {
		mono := make([]complex128, tc.deg+1)
		for i := range mono {
			mono[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		mono[tc.deg] += 1 // keep the top coefficient away from zero
		cheb := ChebyshevCoeffs(mono, tc.lo, tc.hi)
		if len(cheb) != len(mono) {
			t.Fatalf("deg %d: got %d Chebyshev coefficients", tc.deg, len(cheb))
		}
		// Both bases cancel catastrophically on wide intervals at high
		// degree, so compare relative to the coefficient mass rather
		// than the pointwise value.
		mass := 0.0
		for _, cf := range cheb {
			mass += cmplx.Abs(cf)
		}
		for s := 0; s < 25; s++ {
			x := tc.lo + (tc.hi-tc.lo)*rng.Float64()
			z := complex(x, (rng.Float64()-0.5)/4)
			want := hornerMono(mono, z)
			got := chebEval(cheb, tc.lo, tc.hi, z)
			if cmplx.Abs(want-got) > 1e-11*(1+mass) {
				t.Fatalf("deg %d on [%g,%g] at %v: cheb %v vs horner %v", tc.deg, tc.lo, tc.hi, z, got, want)
			}
		}
	}
}

// TestChebSplitIdentity: p = q·T_gs + rem must hold for every giant the
// schedule can pick.
func TestChebSplitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct{ deg, gs int }{
		{15, 8}, {11, 8}, {7, 4}, {5, 4}, {3, 2}, {4, 4}, {8, 8},
	} {
		c := make([]complex128, tc.deg+1)
		for i := range c {
			c[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		c[tc.deg] += 1
		q, rem := chebSplit(c, tc.gs)
		if len(q) != tc.deg-tc.gs+1 || len(rem) != tc.gs {
			t.Fatalf("deg %d gs %d: q/rem lengths %d/%d", tc.deg, tc.gs, len(q), len(rem))
		}
		for s := 0; s < 20; s++ {
			u := complex(rng.Float64()*2-1, 0)
			tgs := cmplx.Cos(complex(float64(tc.gs), 0) * cmplx.Acos(u))
			want := chebEval(c, -1, 1, u)
			got := chebEval(q, -1, 1, u)*tgs + chebEval(rem, -1, 1, u)
			if cmplx.Abs(want-got) > 1e-9*(1+cmplx.Abs(want)) {
				t.Fatalf("deg %d gs %d: split identity off by %g", tc.deg, tc.gs, cmplx.Abs(want-got))
			}
		}
	}
}

// TestEvalPolySchedule pins the baby/giant split and the depth floors on
// hand-checked degrees.
func TestEvalPolySchedule(t *testing.T) {
	cases := []struct{ deg, g, k, levels int }{
		{1, 2, 0, 2}, // normalization + leaf
		{2, 2, 1, 3}, // + one giant product
		{3, 2, 1, 3},
		{7, 4, 1, 5}, // baby ladder T_2,T_3 adds ⌈log2 3⌉ = 2
		{15, 4, 2, 6},
		{31, 8, 2, 7},
	}
	for _, tc := range cases {
		g := preferredBabySpan(tc.deg)
		if g != tc.g {
			t.Fatalf("deg %d: preferred baby span %d, want %d", tc.deg, g, tc.g)
		}
		k, levels := babyGiantLevels(tc.deg, g)
		if k != tc.k || levels != tc.levels {
			t.Fatalf("deg %d (g=%d): k=%d levels=%d, want k=%d levels=%d", tc.deg, g, k, levels, tc.k, tc.levels)
		}
		if d := EvalPolyDepth(tc.deg, 2); d != 2*tc.levels {
			t.Fatalf("deg %d: EvalPolyDepth(·,2) = %d, want %d", tc.deg, d, 2*tc.levels)
		}
		if m := EvalPolyMinLevel(tc.deg, 1); m != tc.levels+2 {
			t.Fatalf("deg %d: EvalPolyMinLevel(·,1) = %d, want %d", tc.deg, m, tc.levels+2)
		}
	}

	// A level too shallow for the preferred span forces the narrower
	// depth-optimal baby block instead of failing: degree 7 at r=2 needs
	// 13 limbs preferred (g=4) but fits 11 with g=2.
	p := PN13.MustBuild() // 12 limbs, r=2
	plan := p.NewEvalPolyPlan(make7(), -1, 1, 0)
	if plan.BabySpan() != 2 {
		t.Fatalf("PN13 degree-7 plan picked baby span %d, want fallback 2", plan.BabySpan())
	}
	if plan.Level() != 11 || plan.Depth() != 8 {
		t.Fatalf("PN13 degree-7 plan level/depth %d/%d, want 11/8", plan.Level(), plan.Depth())
	}
}

func make7() []complex128 {
	mono := make([]complex128, 8)
	for i := range mono {
		mono[i] = complex(1/float64(i+1), 0)
	}
	return mono
}

// constPlain builds the plaintext encoding the constant v in every slot
// at (level, scale): coefficient 0 carries the real part and coefficient
// N/2 the imaginary part. With MulPlain it is the oracle of mulConstAt.
func (ev *Evaluator) constPlain(v complex128, level int, scale float64) *Plaintext {
	rl := ev.ringAt(level)
	pt := &Plaintext{Value: rl.NewPoly(), Level: level, Scale: scale}
	encodeConstInto(ev.params.pow2, pt.Value.Coeffs, 0, real(v), scale)
	encodeConstInto(ev.params.pow2, pt.Value.Coeffs, rl.N/2, imag(v), scale)
	return pt
}

// TestConstPlainEncodesEverySlot: the single-coefficient constant encoding
// must decode to v in every slot, real and imaginary parts both.
func TestConstPlainEncodesEverySlot(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	ev := NewEvaluator(p)
	for _, v := range []complex128{1, -1, 0.375, complex(0.25, -0.625), complex(0, 1)} {
		pt := ev.constPlain(v, p.MaxLevel(), math.Exp2(40))
		got := enc.Decode(pt)
		for i, z := range got {
			if cmplx.Abs(z-v) > 1e-9 {
				t.Fatalf("constPlain(%v): slot %d decodes to %v", v, i, z)
			}
		}
	}
}

// TestMulConstAtMatchesMulPlain: the transform-free constant product is
// byte-identical to MulPlain with the constant's plaintext, at every level
// of the Test and PN13 presets, for real, imaginary, complex, negative,
// zero and sub-unit constants. The scales put v·scale both below 2^53
// (encodeConstInto's rounding shift, e < 0, down to constants that round
// to zero) and above it (e > 0).
func TestMulConstAtMatchesMulPlain(t *testing.T) {
	consts := []complex128{
		1, -1, 0.375, -2.5, complex(0, 1), complex(0, -0.625), complex(0.25, -0.625),
		complex(-3, 7), 0, 1e-3, -3e-7, complex(1e-9, -1e-12), complex(-5e-5, 0.7),
	}
	for _, tc := range []struct {
		name string
		spec ParamSpec
	}{{"Test", TestParams}, {"PN13", PN13}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec.LogN > 10 && testing.Short() {
				t.Skip("PN13 parameters")
			}
			p := tc.spec.MustBuild()
			defer p.Close()
			ev := NewEvaluator(p)
			rl := p.Ring()
			ct := &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: p.MaxLevel(), Scale: math.Exp2(float64(p.LogScale))}
			rl.UniformPoly(prng.NewSource(testSeed(), 91), ct.C0)
			rl.UniformPoly(prng.NewSource(testSeed(), 92), ct.C1)
			for level := 1; level <= p.MaxLevel(); level++ {
				in := ev.DropLevel(ct, level)
				rll := p.RingAt(level)
				for _, scale := range []float64{math.Exp2(20), math.Exp2(40) / 3, math.Exp2(71)} {
					for _, v := range consts {
						want := ev.MulPlain(in, ev.constPlain(v, level, scale))
						got := ev.mulConstAt(in, v, scale)
						if got.Level != want.Level || got.Scale != want.Scale {
							t.Fatalf("level %d, %v at scale %g: (level, scale) (%d, %g), want (%d, %g)",
								level, v, scale, got.Level, got.Scale, want.Level, want.Scale)
						}
						if !rll.Equal(got.C0, want.C0) || !rll.Equal(got.C1, want.C1) {
							t.Fatalf("level %d, %v at scale %g: bytes differ from MulPlain", level, v, scale)
						}
						ev.release(got)
					}
				}
			}
		})
	}
}

// TestEvalPolyDeepRecursion runs the full homomorphic evaluation against
// the Horner oracle on a deep small-ring parameter set, covering every
// structural branch: leaf-only (deg 1), single giant (deg 3), baby
// ladder with scale alignment (deg 7), and the two-doubling giant chain
// with recursive splits (deg 15).
func TestEvalPolyDeepRecursion(t *testing.T) {
	p := deepTestParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)
	rng := rand.New(rand.NewSource(47))

	for _, tc := range []struct {
		deg    int
		lo, hi float64
	}{
		{1, -1, 1}, {3, -1, 1}, {7, -2, 2}, {15, -1, 3},
	} {
		mono := make([]complex128, tc.deg+1)
		for i := range mono {
			mono[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		mono[tc.deg] += 1
		plan := p.NewEvalPolyPlan(mono, tc.lo, tc.hi, 0)
		ks := kg.GenEvaluationKeySet(sk, plan.KeyLevel(), nil, false, GadgetHybrid)

		msg := make([]complex128, p.Slots())
		for i := range msg {
			msg[i] = complex(tc.lo+(tc.hi-tc.lo)*rng.Float64(), 0)
		}
		ct := encryptor.Encrypt(enc.Encode(msg))
		if ct.Level > plan.Level() {
			ct = ev.DropLevel(ct, plan.Level())
		}
		out := ev.EvalPoly(ct, plan, ks.Rlk)
		if out.Level != plan.Level()-plan.Depth() {
			t.Fatalf("deg %d: output level %d, want %d", tc.deg, out.Level, plan.Level()-plan.Depth())
		}
		w := math.Exp2(float64(p.RescalesPerLevel() * p.LimbBits))
		if math.Abs(out.Scale-w) > w*1e-9 {
			t.Fatalf("deg %d: output scale %g, want ≈%g", tc.deg, out.Scale, w)
		}
		got := enc.Decode(dec.Decrypt(out))
		worst := 0.0
		for i := range msg {
			if d := cmplx.Abs(got[i] - hornerMono(mono, msg[i])); d > worst {
				worst = d
			}
		}
		// The error floor is the fresh-encryption noise at this spec's
		// 2^30 encoding scale, amplified by the coefficient mass.
		mass := 0.0
		for _, cf := range plan.cheb {
			mass += cmplx.Abs(cf)
		}
		if tol := 1e-4 * (1 + mass); worst > tol {
			t.Fatalf("deg %d on [%g,%g]: worst-slot error %g (tol %g)", tc.deg, tc.lo, tc.hi, worst, tol)
		}
	}
}

// TestBootstrapStagesDirtyPools: EvalPoly, CoeffsToSlots and SlotsToCoeffs
// draw their intermediates from the scratch pools and hand them back as
// they go. Two runs on one evaluator — each after other ops have returned
// their results to the pools — must reproduce the bytes a fresh evaluator
// computed over clean pools. Built with -tags scribble, every matrix the
// pools take back is overwritten with fresh words, so a stage that reads
// a pooled word before writing it sees different garbage on every run.
func TestBootstrapStagesDirtyPools(t *testing.T) {
	p := deepTestParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dft := enc.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: p.MaxLevel(), Levels: 2})
	plan := p.NewEvalPolyPlan(make7(), -1, 1, 0)
	ks := kg.GenEvaluationKeySet(sk, p.MaxLevel(), dft.Rotations(), true, GadgetHybrid)
	ct := encryptor.Encrypt(enc.Encode(randMsg(p, 0, 63)))

	stages := func(ev *Evaluator) []*Ciphertext {
		re, im := ev.CoeffsToSlots(ct, dft, ks.Rot, ks.Conj)
		back := ev.SlotsToCoeffs(re, im, dft, ks.Rot)
		poly := ev.EvalPoly(ev.DropLevel(ct, plan.Level()), plan, ks.Rlk)
		return []*Ciphertext{re, im, back, poly}
	}
	want := stages(NewEvaluator(p))

	ev := NewEvaluator(p)
	for run := 0; run < 2; run++ {
		other := encryptor.Encrypt(enc.Encode(randMsg(p, 0, 64+uint64(run))))
		for _, lv := range []int{p.MaxLevel(), plan.KeyLevel(), dft.MidLevel} {
			x := ev.DropLevel(other, lv)
			sq := ev.MulRelin(x, x, ks.Rlk)
			rot := ev.RotateGalois(x, ks.Conj)
			ev.release(sq, rot, ev.Add(rot, x), ev.MulByI(rot), ev.Rescale(sq))
		}
		for i, got := range stages(ev) {
			rl := p.RingAt(got.Level)
			if got.Level != want[i].Level || got.Scale != want[i].Scale ||
				!rl.Equal(got.C0, want[i].C0) || !rl.Equal(got.C1, want[i].C1) {
				t.Fatalf("run %d: output %d differs from a fresh evaluator's over clean pools", run, i)
			}
			ev.release(got)
		}
	}
}
