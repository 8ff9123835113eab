package ckks

// Backend-seam tests: the portable and fast backends must produce
// byte-identical ciphertexts for every operation (the lanes.Backend
// contract), and the key-switch schedule must match its spec-shaped
// staged reference exactly — schedule vs reference under one backend
// isolates the scheduling, portable vs fast over whole ops covers the
// kernels.

import (
	"fmt"
	"slices"
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
// hybrid MulRelin, hybrid rotation, hoisted rotations, rescale — is
// byte-identical across backends.
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

// stagedSwitch is the spec-shaped reference for a hybrid key switch,
// written out of whole-polynomial ring ops only and independent of every
// production scheduling function: per group ModUpInto → NTT → per-limb MAC
// into zeroed QP accumulators, then per half INTT of the P rows →
// ModUpInto (P → Q_ℓ) → NTT → rounding divide, and the closing INTT. It
func stagedSwitch(p *Parameters, c *ring.Poly, level int, ksk *SwitchingKey, perm []int32) (out [2]*ring.Poly) {
	k := p.SpecialLimbs
	rl, rqp := p.RingAt(level), p.RingQPAt(level)
	s := [2]*ring.Poly{rqp.NewPoly(), rqp.NewPoly()}
	for j := 0; j < p.DnumAt(level); j++ {
		lo, hi := p.groupRange(level, j)
		d := rqp.NewPoly()
		rqp.ModUpInto(p.groupExtender(level, j), c.Coeffs[lo:hi], d)
		rqp.NTT(d)
		for m := 0; m < level+k; m++ {
			km := m // the key's P tail sits after all ksk.Level of its Q rows
			if m >= level {
				km = ksk.Level + (m - level)
			}
			// The spec MAC, one reduced term at a time — no production row
			// kernel, so the oracle shares no inner loop with what it checks.
			ql, dm := rqp.Basis.Moduli[m], d.Coeffs[m]
			for x := range dm {
				dx := dm[x]
				if perm != nil {
					dx = dm[perm[x]]
				}
				s[0].Coeffs[m][x] = ql.Add(s[0].Coeffs[m][x], ql.Mul(dx, ksk.H0[j].Coeffs[km][x]))
				s[1].Coeffs[m][x] = ql.Add(s[1].Coeffs[m][x], ql.Mul(dx, ksk.H1[j].Coeffs[km][x]))
			}
		}
	}
	for h, acc := range s {
		accP := &ring.Poly{Coeffs: acc.Coeffs[level:], IsNTT: true}
		p.ringP.INTT(accP)
		ext := rl.NewPoly()
		rl.ModUpInto(p.modDownExtender(level), accP.Coeffs, ext)
		rl.NTT(ext)
		out[h] = rl.NewPoly()
		out[h].IsNTT = true
		for i := 0; i < level; i++ {
			rl.SubMulAddRow(i, p.pInvModQ[i], acc.Coeffs[i], ext.Coeffs[i], out[h].Coeffs[i])
		}
		rl.INTT(out[h])
	}
	return out
}

// switchCase is one cell of the reference table: a backend-bound
// parameter set, a switching key (full depth, or capped at 3 so the key's
// P tail does not sit at the ciphertext's level — the km row mapping) and
// a level the key can switch.
type switchCase struct {
	name  string
	p     *Parameters
	ksk   *SwitchingKey
	level int
}

// switchCases spans {portable, fast} × {full-depth, depth-capped key} ×
// every level the key supports (α = 2, so odd levels end in a short group).
func switchCases() []switchCase {
	var cases []switchCase
	pPort, pFast := backendPair()
	for _, p := range []*Parameters{pPort, pFast} {
		kg := NewKeyGenerator(p, testSeed())
		for _, depth := range []int{p.MaxLevel(), 3} {
			ksk := kg.GenRelinearizationKeyHybridAt(depth).K
			for level := 1; level <= depth; level++ {
				name := fmt.Sprintf("%s depth %d level %d", p.Backend().Name(), depth, level)
				cases = append(cases, switchCase{name, p, ksk, level})
			}
		}
	}
	return cases
}

// requireSwitchMatchesStaged checks both production routes against the
// reference on one input: the single-shot switch, and two switches sharing
// one switchQP decomposition, each closed either inside the divide stage
// or by a separate INTT, and each also given the input's NTT form
// (own-group digit rows copied from it rather than transformed).
func requireSwitchMatchesStaged(t *testing.T, tc switchCase, c *ring.Poly, perm []int32, what string) {
	t.Helper()
	p, level := tc.p, tc.level
	rl, rqp := p.RingAt(level), p.RingQPAt(level)
	want := stagedSwitch(p, c, level, tc.ksk, perm)
	cn := rl.CopyPoly(c)
	rl.NTT(cn)
	check := func(route string, got0, got1 *ring.Poly) {
		t.Helper()
		if got0.IsNTT || got1.IsNTT {
			t.Fatalf("%s %s: %s must land in the coefficient domain", tc.name, what, route)
		}
		if !rl.Equal(want[0], got0) || !rl.Equal(want[1], got1) {
			t.Fatalf("%s %s: %s diverges from the staged reference", tc.name, what, route)
		}
	}
	fresh := func() (*ring.Poly, *ring.Poly) {
		a, b := rl.NewPoly(), rl.NewPoly()
		a.IsNTT, b.IsNTT = true, true
		return a, b
	}

	for _, src := range []struct {
		name string
		cn   *ring.Poly
	}{{"", nil}, {" (NTT copy)", cn}} {
		f0, f1 := fresh()
		p.switchInto(c, src.cn, level, tc.ksk, perm, f0, f1, true)
		check("single-shot switch"+src.name, f0, f1)
		g0, g1 := fresh()
		p.switchInto(c, src.cn, level, tc.ksk, perm, g0, g1, false)
		rl.INTT(g0)
		rl.INTT(g1)
		check("single-shot switch → INTT"+src.name, g0, g1)

		sw := []qpSwitch{
			{tc.ksk, perm, rqp.GetPolyUninit(), rqp.GetPolyUninit()},
			{tc.ksk, perm, rqp.GetPolyUninit(), rqp.GetPolyUninit()},
		}
		p.switchQP(c, src.cn, level, false, sw...)
		a0, a1 := fresh()
		p.modDownPair(sw[0].s0, sw[0].s1, level, a0, a1, true)
		check("shared switchQP"+src.name, a0, a1)
		b0, b1 := fresh()
		p.modDownPair(sw[1].s0, sw[1].s1, level, b0, b1, false)
		rl.INTT(b0)
		rl.INTT(b1)
		check("shared switchQP → INTT"+src.name, b0, b1)
	}
}

// TestFusedMatchesStaged: the single-shot switch and the shared-
// decomposition route equal the staged reference byte for byte — every level, with and without
// a hoisting permutation, full-depth and depth-capped keys, both backends.
func TestFusedMatchesStaged(t *testing.T) {
	for _, tc := range switchCases() {
		rl := tc.p.RingAt(tc.level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9000+uint64(tc.level)), c)
		requireSwitchMatchesStaged(t, tc, c, nil, "identity")
		requireSwitchMatchesStaged(t, tc, c, tc.p.Ring().GaloisPermNTT(tc.p.GaloisElement(1)), "permuted")
	}
}

// TestFusedMatchesStagedWideLimbs is the reference table's one cell past
// the 36-bit presets: 61-bit limbs — the widest the spec admits, where a
// 128-bit accumulator has the least room — and α = 1 over nine limbs, so
// β = 9 and the MAC flushes its lazy block twice before the short tail.
func TestFusedMatchesStagedWideLimbs(t *testing.T) {
	spec := ParamSpec{LogN: 8, LimbBits: 61, Limbs: 9, LogScale: 40, HW: 32, SpecialLimbs: 1}
	for _, b := range []lanes.Backend{lanes.Portable, lanes.Fast} {
		p := spec.MustBuild()
		p.SetBackend(b)
		level := p.MaxLevel()
		tc := switchCase{b.Name() + " 61-bit β=9", p, NewKeyGenerator(p, testSeed()).GenRelinearizationKeyHybridAt(level).K, level}
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9300), c)
		requireSwitchMatchesStaged(t, tc, c, nil, "identity")
		requireSwitchMatchesStaged(t, tc, c, p.Ring().GaloisPermNTT(p.GaloisElement(1)), "permuted")
	}
}

// TestOwnLimbCombineIsCopy pins the equality raiseLimb's copy relies on,
// next to the code that relies on it: at every level, for every group,
// converting the group's residues to one of its own limbs returns the
// source row — whatever the float overflow estimate v rounded to.
func TestOwnLimbCombineIsCopy(t *testing.T) {
	p := TestParams.MustBuild()
	n := p.N()
	row := make([]uint64, n)
	for level := 1; level <= p.MaxLevel(); level++ {
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9400+uint64(level)), c)
		grp := p.reduceGroups(c, nil, level)
		for j, g := range grp {
			for i, src := range g.src {
				g.ext.CombineLimb(g.lo+i, g.y.Rows, g.v, row, 0, n)
				if !slices.Equal(row, src) {
					t.Fatalf("level %d group %d: CombineLimb on own limb %d differs from the source row", level, j, g.lo+i)
				}
			}
		}
		releaseGroups(grp)
	}
}

// TestFusedHoistMatchesStaged: one decomposition serves several Galois
// elements — a single switchQP over three permuted switches, each closed
// on its own, equals the reference switch under that element.
func TestFusedHoistMatchesStaged(t *testing.T) {
	steps := []int{1, 2, 5}
	for _, tc := range switchCases() {
		p, level := tc.p, tc.level
		rl, rqp := p.RingAt(level), p.RingQPAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9100+uint64(level)), c)
		sw := make([]qpSwitch, len(steps))
		for i, step := range steps {
			sw[i] = qpSwitch{tc.ksk, p.Ring().GaloisPermNTT(p.GaloisElement(step)), rqp.GetPolyUninit(), rqp.GetPolyUninit()}
		}
		p.switchQP(c, nil, level, false, sw...)
		for i, step := range steps {
			want := stagedSwitch(p, c, level, tc.ksk, sw[i].perm)
			got0, got1 := rl.NewPoly(), rl.NewPoly()
			got0.IsNTT, got1.IsNTT = true, true
			p.modDownPair(sw[i].s0, sw[i].s1, level, got0, got1, true)
			if !rl.Equal(want[0], got0) || !rl.Equal(want[1], got1) {
				t.Fatalf("%s step %d: switch over the shared decomposition diverges from the staged reference", tc.name, step)
			}
		}
	}
}

// TestFusedSwitchAllocs: the schedule's steady state draws all polynomial
// scratch from the pools — per call it may allocate only the small
// orchestration slices and the per-dispatch job headers, never a digit
// buffer (β·(L+k)·N words) or accumulator storage — on either backend,
// single-shot or shared by several switches.
func TestFusedSwitchAllocs(t *testing.T) {
	pPort, pFast := backendPair()
	for _, p := range []*Parameters{pPort, pFast} {
		kg := NewKeyGenerator(p, testSeed())
		rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
		level := p.MaxLevel()
		rl, rqp := p.RingAt(level), p.RingQPAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9200), c)
		out0 := rl.NewPoly()
		out1 := rl.NewPoly()

		// Per route: dispatches × (job + closure), the β-sized bookkeeping,
		// pooled-poly wrappers and one slab-header box per pooled row
		// returned. The budgets are about what must NOT appear: any O(N)
		// storage — a digit buffer or accumulator allocation would blow
		// past them immediately at real ring degrees.
		for _, route := range []struct {
			name   string
			budget float64
			run    func()
		}{
			{"single-shot switch", 96, func() {
				out0.IsNTT, out1.IsNTT = true, true
				p.switchInto(c, nil, level, rlk.K, nil, out0, out1, true)
			}},
			{"shared switchQP ×2", 96, func() {
				sw := []qpSwitch{
					{rlk.K, nil, rqp.GetPolyUninit(), rqp.GetPolyUninit()},
					{rlk.K, nil, rqp.GetPolyUninit(), rqp.GetPolyUninit()},
				}
				p.switchQP(c, nil, level, false, sw...)
				for _, w := range sw {
					out0.IsNTT, out1.IsNTT = true, true
					p.modDownPair(w.s0, w.s1, level, out0, out1, true)
				}
			}},
		} {
			for i := 0; i < 3; i++ {
				route.run() // warm the pools
			}
			allocs := testing.AllocsPerRun(10, route.run)
			t.Logf("%s %s: %.0f allocs/op", p.Backend().Name(), route.name, allocs)
			if allocs > route.budget {
				t.Fatalf("%s %s allocates %.0f objects/op, budget %.0f", p.Backend().Name(), route.name, allocs, route.budget)
			}
		}
	}
}

// FuzzFusedHybridSwitch: for arbitrary inputs and levels, both production
// routes agree with the staged reference byte for byte on both backends.
func FuzzFusedHybridSwitch(f *testing.F) {
	pPort, pFast := backendPair()
	var keys [2]*SwitchingKey
	for i, p := range []*Parameters{pPort, pFast} {
		keys[i] = NewKeyGenerator(p, testSeed()).GenRelinearizationKeyHybridAt(p.MaxLevel()).K
	}
	perm := pPort.Ring().GaloisPermNTT(pPort.GaloisElement(2))
	f.Add(uint64(1), uint64(2), uint8(4), false)
	f.Add(uint64(3), uint64(4), uint8(3), true)
	f.Fuzz(func(t *testing.T, seedLo, seedHi uint64, levelByte uint8, permute bool) {
		level := 1 + int(levelByte)%pPort.MaxLevel()
		var pm []int32
		if permute {
			pm = perm
		}
		for i, p := range []*Parameters{pPort, pFast} {
			rl := p.RingAt(level)
			c := rl.NewPoly()
			rl.UniformPoly(prng.NewSource(prng.SeedFromUint64s(seedLo, seedHi), 11), c)
			tc := switchCase{p.Backend().Name(), p, keys[i], level}
			requireSwitchMatchesStaged(t, tc, c, pm, fmt.Sprintf("level %d permute=%v", level, permute))
		}
	})
}
