package ckks

// Backend-seam tests: the portable and fast backends must produce
// byte-identical ciphertexts for every operation (the lanes.Backend
// contract), and the fused hybrid key-switch pipeline must match the
// staged path exactly — fused vs staged under one backend isolates the
// fusion, portable vs fast over whole ops covers the kernels.

import (
	"testing"

	"repro/internal/lanes"
	"repro/internal/prng"
	"repro/internal/ring"
)

// backendPair builds two identical parameter sets bound to the portable
// and fast backends.
func backendPair() (pPort, pFast *Parameters) {
	pPort = TestParams.MustBuild()
	pPort.SetBackend(lanes.Portable)
	pFast = TestParams.MustBuild()
	pFast.SetBackend(lanes.Fast)
	return pPort, pFast
}

func requireSameCT(t *testing.T, r *ring.Ring, what string, a, b *Ciphertext) {
	t.Helper()
	if a.Level != b.Level || a.Scale != b.Scale {
		t.Fatalf("%s: level/scale diverge across backends", what)
	}
	if !r.Equal(a.C0, b.C0) || !r.Equal(a.C1, b.C1) {
		t.Fatalf("%s: ciphertext bytes diverge across backends", what)
	}
}

// TestBackendEquivalence: the full client+server pipeline — encrypt,
// hybrid MulRelin (fused on fast), hybrid rotation (fused), hoisted
// rotations, rescale — is byte-identical across backends.
func TestBackendEquivalence(t *testing.T) {
	pPort, pFast := backendPair()
	msg1 := randMsg(pPort, 0, 301)
	msg2 := randMsg(pPort, 0, 302)

	type run struct {
		enc, mul, rotHy, hoist0, hoist1 *Ciphertext
	}
	exec := func(p *Parameters) run {
		kg := NewKeyGenerator(p, testSeed())
		_, pk := kg.GenKeyPair()
		enc := NewEncoder(p)
		encryptor := NewEncryptor(p, pk, testSeed())
		ev := NewEvaluator(p)
		ct1 := encryptor.Encrypt(enc.Encode(msg1))
		ct2 := encryptor.Encrypt(enc.Encode(msg2))

		rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
		mul := ev.Rescale(ev.MulRelin(ct1, ct2, rlk))

		rkHy := kg.GenRotationKeyHybridAt(p.GaloisElement(3), p.MaxLevel())
		rkHy2 := kg.GenRotationKeyHybridAt(p.GaloisElement(5), p.MaxLevel())
		hoisted := ev.RotateHoisted(ct1, []*RotationKey{rkHy, rkHy2})
		return run{
			enc:    ct1,
			mul:    mul,
			rotHy:  ev.RotateGalois(ct1, rkHy),
			hoist0: hoisted[0],
			hoist1: hoisted[1],
		}
	}
	a, b := exec(pPort), exec(pFast)
	r := pPort.Ring()
	requireSameCT(t, r, "encrypt", a.enc, b.enc)
	requireSameCT(t, r, "hybrid MulRelin+Rescale", a.mul, b.mul)
	requireSameCT(t, r, "hybrid RotateGalois", a.rotHy, b.rotHy)
	requireSameCT(t, r, "hoisted rotation[0]", a.hoist0, b.hoist0)
	requireSameCT(t, r, "hoisted rotation[1]", a.hoist1, b.hoist1)
}

// stagedSwitch runs the pre-fusion pipeline explicitly (hoist → apply →
// closing INTTs), regardless of the ring's backend.
func stagedSwitch(p *Parameters, c *ring.Poly, level int, ksk *SwitchingKey, perm []int32) (*ring.Poly, *ring.Poly) {
	rl := p.RingAt(level)
	out0 := rl.NewPoly()
	out1 := rl.NewPoly()
	out0.IsNTT, out1.IsNTT = true, true
	h := p.hoistHybrid(c, level)
	p.applyInto(h, ksk, perm, out0, out1)
	p.releaseDigits(h)
	rl.INTT(out0)
	rl.INTT(out1)
	return out0, out1
}

// TestFusedMatchesStaged: switchHybridFused equals the staged pipeline
// byte for byte — full depth and a level with a short last group, with
// and without a hoisting permutation, against a depth-capped key (the
// km key-row mapping) and a full-depth one.
func TestFusedMatchesStaged(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	rlkFull := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	perm := p.Ring().GaloisPermNTT(p.GaloisElement(1))

	for _, level := range []int{p.MaxLevel(), 3} { // 3 % α=2 ≠ 0: short group
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9000+uint64(level)), c)
		for _, tc := range []struct {
			name string
			perm []int32
		}{{"identity", nil}, {"permuted", perm}} {
			s0, s1 := stagedSwitch(p, c, level, rlkFull.K, tc.perm)
			f0 := rl.NewPoly()
			f1 := rl.NewPoly()
			f0.IsNTT, f1.IsNTT = true, true
			p.switchHybridFused(c, level, rlkFull.K, tc.perm, f0, f1, true)
			if !rl.Equal(s0, f0) || !rl.Equal(s1, f1) {
				t.Fatalf("level %d %s: fused switch diverges from staged", level, tc.name)
			}
			if f0.IsNTT || f1.IsNTT {
				t.Fatalf("level %d: closeNTT must land in the coefficient domain", level)
			}
		}
	}
}

// TestFusedHoistMatchesStaged: the two-dispatch hoist produces the same
// digit polynomials as the staged per-group hoist.
func TestFusedHoistMatchesStaged(t *testing.T) {
	p := testParams
	for _, level := range []int{p.MaxLevel(), 3} {
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9100+uint64(level)), c)
		hs := p.hoistHybrid(c, level)
		hf := p.hoistHybridFused(c, level)
		rqp := p.RingQPAt(level)
		for j := range hs.dig {
			if !rqp.Equal(hs.dig[j], hf.dig[j]) {
				t.Fatalf("level %d group %d: fused hoist diverges", level, j)
			}
		}
		p.releaseDigits(hs)
		p.releaseDigits(hf)
	}
}

// TestFusedSwitchAllocs: the fused pipeline's steady state draws all
// polynomial scratch from the pools — per call it may allocate only the
// small orchestration slices and the per-dispatch job headers, never a
// digit buffer (β·(L+k)·N words) or accumulator storage.
func TestFusedSwitchAllocs(t *testing.T) {
	p := TestParams.MustBuild()
	p.SetBackend(lanes.Fast)
	kg := NewKeyGenerator(p, testSeed())
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	level := p.MaxLevel()
	rl := p.RingAt(level)
	c := rl.NewPoly()
	rl.UniformPoly(prng.NewSource(testSeed(), 9200), c)
	out0 := rl.NewPoly()
	out1 := rl.NewPoly()

	run := func() {
		out0.IsNTT, out1.IsNTT = true, true
		p.switchHybridFused(c, level, rlk.K, nil, out0, out1, true)
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	// 5 dispatches × (job + closure), the β-sized bookkeeping slices, and
	// one slab-header box per pooled row returned (~77 small objects at
	// the test geometry). The budget is about what must NOT appear: any
	// O(N) storage — a digit buffer or accumulator allocation would blow
	// past it immediately at real ring degrees.
	if allocs := testing.AllocsPerRun(10, run); allocs > 96 {
		t.Fatalf("fused switch allocates %.0f objects/op, budget 96", allocs)
	}
}

// FuzzFusedHybridSwitch: for arbitrary inputs and levels, fused and
// staged hybrid switching agree byte for byte.
func FuzzFusedHybridSwitch(f *testing.F) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	perm := p.Ring().GaloisPermNTT(p.GaloisElement(2))
	f.Add(uint64(1), uint64(2), uint8(4), false)
	f.Add(uint64(3), uint64(4), uint8(3), true)
	f.Fuzz(func(t *testing.T, seedLo, seedHi uint64, levelByte uint8, permute bool) {
		level := 1 + int(levelByte)%p.MaxLevel()
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(prng.SeedFromUint64s(seedLo, seedHi), 11), c)
		var pm []int32
		if permute {
			pm = perm
		}
		s0, s1 := stagedSwitch(p, c, level, rlk.K, pm)
		f0 := rl.NewPoly()
		f1 := rl.NewPoly()
		f0.IsNTT, f1.IsNTT = true, true
		p.switchHybridFused(c, level, rlk.K, pm, f0, f1, true)
		if !rl.Equal(s0, f0) || !rl.Equal(s1, f1) {
			t.Fatalf("level %d permute=%v: fused switch diverges from staged", level, permute)
		}
	})
}
