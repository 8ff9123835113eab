package ckks

// Fused hybrid key switching — the fast backend's pipeline. The staged
// path (hoistHybrid → applyInto → modDownInto) pays one lane
// dispatch per stage: β ModUps, β NTT sweeps, the MAC, then per half an
// INTT sweep, a ModUp, an NTT sweep and the divide — ~13–16 barriers, and
// a β-polynomial hoisted-digit buffer of (level+k)·N words between the
// first two. This file runs the same arithmetic as five dispatches over
// (limb, stage-chain) tasks:
//
//	1. reduce   β·C chunk tasks: per group, ReduceRange computes the
//	            HPS y_i rows and the overflow estimate v once.
//	2. mac      level+k limb tasks: per extended-basis limb, for each
//	            group — CombineLimb into one pooled row, forward NTT of
//	            that row, multiply-accumulate into both halves. The row
//	            is reused across groups, so the β·(level+k)·N digit
//	            buffer never exists; the first group writes through the
//	            set-variant MAC so the accumulators start uninitialized.
//	3. intt-P   2k limb tasks: both halves' P rows back to coefficients.
//	4. reduce-P 2·C chunk tasks: ReduceRange of each half's P residues.
//	5. divide   2·level limb tasks: CombineLimb (P → Q_ℓ), forward NTT,
//	            fused (acc − ext)·P⁻¹ accumulate, and optionally the
//	            closing inverse NTT of the output limb.
//
// Byte identity with the staged path (and so with the portable backend)
// holds stage by stage: ReduceRange + CombineLimb reproduce ExtendRange's
// arithmetic in the same order (including the float64 v accumulation),
// the per-limb NTT is the same backend-bound kernel the staged sweep
// runs, and the MAC accumulates groups in the same ascending order with
// the same per-element a0-then-a1 sequence. Chunk and task boundaries are
// execution details — every kernel is pure per-coefficient arithmetic
// over disjoint outputs, so any partition computes the same bytes
// (TestFusedMatchesStaged and the cross-backend property tests assert
// this end to end).

import (
	"repro/internal/lanes"
	"repro/internal/ring"
	"repro/internal/rns"
)

// useFused reports whether key switches should run the fused pipeline:
// only on the specialized backend. The portable backend keeps the staged
// path — it is the oracle fused output is checked against.
func (p *Parameters) useFused() bool {
	return p.ringQ.Backend().Specialized()
}

// fusedChunks mirrors lanes.RunChunks' oversubscribed carve so the chunk
// stages load-balance the same way: ~4 chunks per worker, capped at n.
func fusedChunks(eng *lanes.Engine, n int) int {
	c := eng.Workers()
	if c > 1 {
		c *= 4
	}
	if c > n {
		c = n
	}
	return c
}

// switchHybridFused key-switches c (coefficient domain, `level` limbs)
// against ksk, accumulating the switched halves into acc0/acc1 (NTT
// domain, level limbs). perm is the hoisting automorphism gather (nil ⇒
// identity). When closeNTT is set the output limbs are inverse-NTT'd
// inside the divide stage and acc0/acc1 land in the coefficient domain —
// folding the caller's closing transforms into the pipeline.
func (p *Parameters) switchHybridFused(c *ring.Poly, level int, ksk *SwitchingKey, perm []int32, acc0, acc1 *ring.Poly, closeNTT bool) {
	if c.IsNTT {
		panic("ckks: fused switch expects a coefficient-domain input")
	}
	if level > ksk.Level {
		panic("ckks: ciphertext level exceeds switching-key depth")
	}
	n := p.N()
	k := p.SpecialLimbs
	beta := p.DnumAt(level)
	rqp := p.RingQPAt(level)
	eng := rqp.Engine()

	// Tables first, outside the lane tasks (they take p.hybridMu).
	exts := make([]*rns.Extender, beta)
	srcs := make([][][]uint64, beta)
	for j := 0; j < beta; j++ {
		exts[j] = p.groupExtender(level, j)
		lo, hi := p.groupRange(level, j)
		srcs[j] = c.Coeffs[lo:hi]
	}
	mext := p.modDownExtender(level)

	// Stage 1: per-group source reduction, chunked over coefficients.
	ys := make([]*lanes.Matrix, beta)
	vs := make([][]uint64, beta)
	for j := 0; j < beta; j++ {
		ys[j] = lanes.GetMatrix(len(srcs[j]), n)
		vs[j] = lanes.GetSlab(n)
	}
	chunks := fusedChunks(eng, n)
	size := (n + chunks - 1) / chunks
	eng.Run(beta*chunks, func(t int) {
		j, ch := t/chunks, t%chunks
		lo := ch * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo < hi {
			exts[j].ReduceRange(srcs[j], ys[j].Rows, vs[j], lo, hi)
		}
	})

	// Stage 2: per-limb combine → NTT → dual-half MAC, one task per
	// extended-basis limb. Each task owns one pooled digit row, reused
	// across groups; group 0 lands through the set-variant MAC so the QP
	// accumulators can start uninitialized (set == add-to-zero).
	s0 := rqp.GetPolyUninit()
	s1 := rqp.GetPolyUninit()
	s0.IsNTT, s1.IsNTT = true, true
	eng.Run(level+k, func(m int) {
		km := m // key-row limb index: Q part aligns, P tail sits at ksk.Level
		if m >= level {
			km = ksk.Level + (m - level)
		}
		a0, a1 := s0.Coeffs[m], s1.Coeffs[m]
		row := lanes.GetSlab(n)
		for j := 0; j < beta; j++ {
			exts[j].CombineLimb(m, ys[j].Rows, vs[j], row, 0, n)
			rqp.ForwardLimb(m, row)
			k0 := ksk.H0[j].Coeffs[km]
			k1 := ksk.H1[j].Coeffs[km]
			if j == 0 {
				rqp.MulPairRow(m, perm, row, k0, k1, a0, a1)
			} else {
				rqp.MulAddPairRow(m, perm, row, k0, k1, a0, a1)
			}
		}
		lanes.PutSlab(row)
	})
	for j := 0; j < beta; j++ {
		lanes.PutMatrix(ys[j])
		lanes.PutSlab(vs[j])
	}

	// Stage 3: both halves' P residues back to the coefficient domain.
	halves := [2]*ring.Poly{s0, s1}
	p.ringP.Engine().Run(2*k, func(t int) {
		h, i := t/k, t%k
		p.ringP.InverseLimb(i, halves[h].Coeffs[level+i])
	})

	// Stage 4: source reduction of the P → Q_ℓ conversion, both halves.
	var yP [2]*lanes.Matrix
	var vP [2][]uint64
	for h := 0; h < 2; h++ {
		yP[h] = lanes.GetMatrix(k, n)
		vP[h] = lanes.GetSlab(n)
	}
	eng.Run(2*chunks, func(t int) {
		h, ch := t/chunks, t%chunks
		lo := ch * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo < hi {
			mext.ReduceRange(halves[h].Coeffs[level:], yP[h].Rows, vP[h], lo, hi)
		}
	})

	// Stage 5: per-limb combine → NTT → fused rounding divide into the
	// caller's accumulators, with the optional closing inverse NTT.
	rq := p.RingAt(level)
	outs := [2]*ring.Poly{acc0, acc1}
	eng.Run(2*level, func(t int) {
		h, i := t/level, t%level
		row := lanes.GetSlab(n)
		mext.CombineLimb(i, yP[h].Rows, vP[h], row, 0, n)
		rq.ForwardLimb(i, row)
		rq.SubMulAddRow(i, p.pInvModQ[i], halves[h].Coeffs[i], row, outs[h].Coeffs[i])
		lanes.PutSlab(row)
		if closeNTT {
			rq.InverseLimb(i, outs[h].Coeffs[i])
		}
	})
	if closeNTT {
		acc0.IsNTT, acc1.IsNTT = false, false
	}
	for h := 0; h < 2; h++ {
		lanes.PutMatrix(yP[h])
		lanes.PutSlab(vP[h])
	}
	rqp.PutPoly(s0)
	rqp.PutPoly(s1)
}

// hoistHybridFused is hoistHybrid collapsed to two dispatches: one
// reduce stage over (group, chunk) tasks and one combine+NTT stage over
// extended-basis limbs writing every group's digit row for that limb.
// Same bytes as hoistHybrid (same kernels, same order); used by
// RotateHoisted on the fast backend, where the digits must be
// materialized because many Galois elements reuse them.
func (p *Parameters) hoistHybridFused(c *ring.Poly, level int) *hoistedDigits {
	n := p.N()
	k := p.SpecialLimbs
	beta := p.DnumAt(level)
	rqp := p.RingQPAt(level)
	eng := rqp.Engine()

	exts := make([]*rns.Extender, beta)
	srcs := make([][][]uint64, beta)
	for j := 0; j < beta; j++ {
		exts[j] = p.groupExtender(level, j)
		lo, hi := p.groupRange(level, j)
		srcs[j] = c.Coeffs[lo:hi]
	}

	ys := make([]*lanes.Matrix, beta)
	vs := make([][]uint64, beta)
	for j := 0; j < beta; j++ {
		ys[j] = lanes.GetMatrix(len(srcs[j]), n)
		vs[j] = lanes.GetSlab(n)
	}
	chunks := fusedChunks(eng, n)
	size := (n + chunks - 1) / chunks
	eng.Run(beta*chunks, func(t int) {
		j, ch := t/chunks, t%chunks
		lo := ch * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo < hi {
			exts[j].ReduceRange(srcs[j], ys[j].Rows, vs[j], lo, hi)
		}
	})

	h := &hoistedDigits{level: level, dig: make([]*ring.Poly, beta)}
	for j := 0; j < beta; j++ {
		h.dig[j] = rqp.GetPolyUninit() // every row fully overwritten below
	}
	eng.Run(level+k, func(m int) {
		for j := 0; j < beta; j++ {
			row := h.dig[j].Coeffs[m]
			exts[j].CombineLimb(m, ys[j].Rows, vs[j], row, 0, n)
			rqp.ForwardLimb(m, row)
		}
	})
	for j := 0; j < beta; j++ {
		h.dig[j].IsNTT = true
		lanes.PutMatrix(ys[j])
		lanes.PutSlab(vs[j])
	}
	return h
}
