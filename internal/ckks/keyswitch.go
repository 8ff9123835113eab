package ckks

import (
	"sync/atomic"

	"repro/internal/lanes"
	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/rns"
)

// Key switching — the server-side machinery that makes
// ciphertext-ciphertext multiplication and slot rotations possible.
// ABC-FHE itself never executes these (it is a client accelerator), but
// the ciphertexts it produces are consumed by servers that do — so the
// server half of the protocol is a first-class citizen here, reachable
// through the public Server role.
//
// One construction is implemented: hybrid key switching with special
// primes (the P·Q construction every bootstrappable stack uses). To switch
// a polynomial c from key f to key s, the Q chain splits into
// dnum = ⌈L/α⌉ groups of α limbs, the modulus is raised to Q·P
// (P = p_0…p_{k-1}, k = α special primes), and the key holds one row per
// *group* over the extended basis:
//
//	ksk_j = (-a_j·s + e_j + P·δ_j·f,  a_j)  over  R_{Q·P},
//
// where δ_j is 1 on group-j limbs and 0 elsewhere (the RNS form of
// P·Q̂_j·[Q̂_j^{-1}]_{Q_j}). The switch ModUps each group's residues to
// the QP basis (rns.Extender), accumulates Σ_j D_j(c)·ksk_j there, and
// ModDowns by P with rounding — the P factor cancels, leaving c·f plus
// noise ≈ β·α·√N·σ·(Q_grp/P) ≲ σ·√(βαN) plus the ModDown rounding term.
// A depth-D key is ⌈D/α⌉ rows of D+k limbs — linear in depth — and the
// hot path runs β·(L+k) NTTs. DESIGN.md "Why hybrid only" records why
// this is the only construction.
//
// One schedule runs every switch, on every backend — lanes.Backend picks
// the inner loop each stage kernel binds and nothing in this file reads
// it. All scratch is pooled and each stage is one lane dispatch over
// (limb or coefficient-chunk) tasks:
//
//	1. reduce   β·C chunk tasks: per group, ReduceRange computes the HPS
//	            y_i rows and the overflow estimate v once (reduceGroups).
//	2. mac      level+k limb tasks: per extended-basis limb, raise every
//	            group's digit row (a copy of the source row on the
//	            group's own limbs, CombineLimb elsewhere) and forward-NTT
//	            it, then one MulPairRows over all β rows and both key
//	            halves writes (or adds onto) the limb's accumulator rows
//	            once. Given the source's NTT form, the own-limb rows copy
//	            from it and skip their transform: β(level+k) − level NTTs
//	            instead of β(level+k).
//	3. intt-P   k limb tasks per half: the P rows back to coefficients.
//	4. reduce-P C chunk tasks per half: ReduceRange of the P residues.
//	5. divide   level limb tasks per half: CombineLimb (P → Q_ℓ), forward
//	            NTT, fused (acc − ext)·P⁻¹ accumulate, and optionally the
//	            closing inverse NTT of the output limb (modDown runs 3–5
//	            for one half or, as modDownPair, both at once).
//
// The entry points compose those stages. switchInto is the single-shot
// switch for a decomposition consumed once (MulRelin, RotateGalois): stages
// 1–2 as switchQP, then modDownPair. Stage 2 holds β pooled rows per
// in-flight limb task (workers·β·N words), so the β·(level+k)·N digit
// buffer never exists. hoist splits stage 2 where many Galois elements
// reuse the digits (RotateHoisted, LinearTransform's baby steps): raise+NTT
// lands in pooled digit polynomials once, and each macQP runs the MAC over
// them — the Galois element applied as an NTT-domain gather. applyInto
// closes such a MAC through modDownPair. LinearTransform calls the stages
// directly (double hoisting, lintrans.go): its baby MACs and giant
// switchQPs stay in Q·P, one single-half modDown feeds each giant
// decomposition, and one modDownPair closes the transform. Callers that
// hold the source's NTT form pass it (MulRelin's c2, the transform's c1
// and block sums); the result is byte-identical either way.
//
// The whole-polynomial, spec-shaped form of this arithmetic (ModUpInto →
// NTT → MAC → INTT of the P rows → ModUpInto → NTT → divide) lives on as
// the test-only reference stagedSwitch in backend_test.go. Byte identity
// with it holds stage by stage: ReduceRange shares ExtendRange's float64 v
// accumulation order, CombineLimb and the MAC sum mod.LazyTerms products
// in 128 bits per Barrett reduction and so write the canonical residue of
// the sums the reference reduces term by term (reducing late cannot change
// a residue), and the per-limb NTT is the kernel the whole-polynomial
// sweep runs. Chunk and task boundaries are execution details — every
// kernel is pure per-coefficient arithmetic over disjoint outputs
// (TestFusedMatchesStaged, TestFusedHoistMatchesStaged and
// FuzzFusedHybridSwitch: every level, both backends).

// Gadget is the key-switching construction tag of the evaluation-key wire
// format (evalkeyserialize.go). GadgetHybrid is its only value: tag 0
// belonged to the retired digit gadget and is rejected on read.
type Gadget byte

// GadgetHybrid is hybrid key switching with special primes (P·Q).
const GadgetHybrid Gadget = 1

// SwitchingKey holds the key-switching rows for one target polynomial.
// Level is the depth the key supports: the key can switch any ciphertext
// at level ≤ Level (prefix views) — depth-capped keys are how
// evaluation-key blobs stay proportional to the depth the server actually
// computes at.
type SwitchingKey struct {
	// H0[j], H1[j]: the two halves (b_j, a_j) of the group-j row, NTT
	// domain, Level+Alpha limbs over the extended basis
	// (q_0..q_{Level-1}, p_0..p_{α-1}). a_j is the uniform mask, a
	// function of the public mask seed (regenMaskRow).
	H0, H1 []*ring.Poly
	Alpha  int // group size α (== Parameters.SpecialLimbs)

	Level int
}

// maskStream is the PRNG stream of row j's mask a_j in the switching key
// whose sampling window starts at base; the row's error draws from
// maskStream+1 on the secret seed.
func maskStream(base uint64, j int) uint64 { return base + 2*uint64(j) + 2 }

// regenMaskRow allocates row j's mask a_j = Uniform(maskSeed,
// maskStream(base, j)) in the NTT domain over rqp and installs it as
// ksk.H1[j]. Key generation and evaluation-key import both build every
// mask row here, so the rows a receiver regenerates are the generator's
// by construction.
func (ksk *SwitchingKey) regenMaskRow(rqp *ring.Ring, maskSeed [16]byte, base uint64, j int) {
	a := rqp.NewPoly()
	regenMask(rqp, maskSeed, maskStream(base, j), a)
	ksk.H1[j] = a
}

// genHybridSwitchingKey builds the hybrid key that moves polynomial mass
// multiplied by fQP back to the secret: one row per decomposition group
// over the extended basis. sQP and fQP must be NTT-domain polynomials over
// RingQPAt(depth). Row j draws its mask from the public mask seed on
// stream streamBase+2j+2 and its error from the secret seed on +2j+3, so
// the β rows are independent lane tasks (their limb kernels nest inside
// the row task) and regeneration from the same seed is byte-identical at
// any worker count.
func (kg *KeyGenerator) genHybridSwitchingKey(sQP, fQP *ring.Poly, depth int, streamBase uint64) *SwitchingKey {
	p := kg.params
	rqp := p.RingQPAt(depth)
	beta := p.DnumAt(depth)
	ksk := &SwitchingKey{
		Alpha: p.SpecialLimbs, Level: depth,
		H0: make([]*ring.Poly, beta), H1: make([]*ring.Poly, beta),
	}
	rqp.Engine().Run(beta, func(j int) {
		ksk.regenMaskRow(rqp, kg.maskSeed, streamBase, j)
		a := ksk.H1[j]

		e := rqp.GetPolyUninit() // sampler fully overwrites
		rqp.GaussianPoly(prng.NewSource(kg.seed, maskStream(streamBase, j)+1), e)
		rqp.NTT(e)

		b := rqp.NewPoly()
		rqp.MulCoeffs(a, sQP, b)
		rqp.Neg(b, b)
		rqp.Add(b, e, b)
		rqp.PutPoly(e)

		// + P·δ_j·f: the gadget term touches only group-j limbs (it is 0 on
		// the other Q limbs and ≡ 0 mod every special prime).
		lo, hi := p.groupRange(depth, j)
		for i := lo; i < hi; i++ {
			m := rqp.Basis.Moduli[i]
			sc := p.pModQ[i]
			fi, bi := fQP.Coeffs[i], b.Coeffs[i]
			for x := range bi {
				bi[x] = m.Add(bi[x], m.Mul(fi[x], sc))
			}
		}
		ksk.H0[j] = b
	})
	return ksk
}

// hoistedDigits is a ciphertext's c1 in decomposed, NTT-domain form — the
// expensive half of a key switch, computed once and reusable across any
// number of Galois elements: dig[j] is group j raised to the QP basis
// (level+α limbs), and rows[m·β : (m+1)·β] lists limb m's β digit rows —
// the shape MulPairRows takes, built once so no apply allocates per limb
// task. All polynomial storage is pooled: release with releaseDigits.
type hoistedDigits struct {
	dig   []*ring.Poly
	rows  [][]uint64
	level int
}

// switchCounts tallies key-switch work for tests that pin the schedule's
// shape: ModDown halves closed, and digit rows forward-transformed by a
// decomposition. Parameters.counts is nil in production, and every method
// is a no-op on a nil receiver.
type switchCounts struct {
	modDownHalves atomic.Int64
	digitNTTs     atomic.Int64
}

func (c *switchCounts) modDown(halves int) {
	if c != nil {
		c.modDownHalves.Add(int64(halves))
	}
}

func (c *switchCounts) digitNTT() {
	if c != nil {
		c.digitNTTs.Add(1)
	}
}

// reducedGroup is stage 1's view of one decomposition group: its source
// rows (and, when the caller has it, their NTT-domain form), the extender
// from the group's primes to the QP basis, and the stage's output — the
// HPS y_i rows of the residues and the overflow estimate v. y and v are
// pooled. lo is the group's first limb.
type reducedGroup struct {
	src    [][]uint64
	srcNTT [][]uint64 // nil unless the source's NTT form was supplied
	lo     int
	ext    *rns.Extender
	y      *lanes.Matrix
	v      []uint64
	counts *switchCounts
}

// raiseLimb writes limb m of the group's lift to the QP basis, NTT domain,
// into row — one digit row, ready for the MAC. The group's own limbs copy
// instead of converting: the HPS lift is x̄ + u·G with G ≡ 0 on every
// source prime, so there the residue is the source residue whatever v
// rounds to (TestOwnLimbCombineIsCopy). When the source's NTT form is at
// hand those limbs copy from it and skip their transform: the limb NTT is
// a bijection on canonical residues, so the row is the same either way.
func (g *reducedGroup) raiseLimb(rqp *ring.Ring, m int, row []uint64) {
	i := m - g.lo
	own := i >= 0 && i < len(g.src)
	switch {
	case own && g.srcNTT != nil:
		copy(row, g.srcNTT[i])
		return
	case own:
		copy(row, g.src[i])
	default:
		g.ext.CombineLimb(m, g.y.Rows, g.v, row, 0, len(row))
	}
	rqp.ForwardLimb(m, row)
	g.counts.digitNTT()
}

// runGroupChunks runs fn over (group, coefficient-range) tasks as one
// lane dispatch, carving [0, n) the way lanes.RunChunks does (~4 chunks
// per worker, capped at n) so the reduce stages load-balance alike.
func runGroupChunks(eng *lanes.Engine, groups, n int, fn func(g, lo, hi int)) {
	chunks := eng.Workers()
	if chunks > 1 {
		chunks *= 4
	}
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	eng.Run(groups*chunks, func(t int) {
		lo := (t % chunks) * size
		if hi := min(lo+size, n); lo < hi {
			fn(t/chunks, lo, hi)
		}
	})
}

// reduceGroups is stage 1: the source reduction of every decomposition
// group of c (coefficient domain, `level` limbs), chunked over
// coefficients. cn, when non-nil, is c's NTT-domain form; the digit rows
// of each group's own limbs are then copied from it untransformed. Release
// the result with releaseGroups.
func (p *Parameters) reduceGroups(c, cn *ring.Poly, level int) []reducedGroup {
	if c.IsNTT || (cn != nil && !cn.IsNTT) {
		panic("ckks: key switch expects a coefficient-domain input and an optional NTT-domain copy")
	}
	n := p.N()
	// Tables first, outside the lane tasks (they take p.hybridMu).
	grp := make([]reducedGroup, p.DnumAt(level))
	for j := range grp {
		lo, hi := p.groupRange(level, j)
		grp[j] = reducedGroup{
			src: c.Coeffs[lo:hi], lo: lo, ext: p.groupExtender(level, j),
			y: lanes.GetMatrix(hi-lo, n), v: lanes.GetSlab(n), counts: p.counts,
		}
		if cn != nil {
			grp[j].srcNTT = cn.Coeffs[lo:hi]
		}
	}
	runGroupChunks(p.RingQPAt(level).Engine(), len(grp), n, func(j, lo, hi int) {
		g := grp[j]
		g.ext.ReduceRange(g.src, g.y.Rows, g.v, lo, hi)
	})
	return grp
}

// releaseGroups returns stage 1's pooled storage.
func releaseGroups(grp []reducedGroup) {
	for _, g := range grp {
		lanes.PutMatrix(g.y)
		lanes.PutSlab(g.v)
	}
}

// keyLimb maps extended-basis limb m of a level-`level` switch to its row
// in the depth-capped key: the Q part aligns, the P tail sits at k.Level.
func (k *SwitchingKey) keyLimb(level, m int) int {
	if m >= level {
		return k.Level + (m - level)
	}
	return m
}

// switchInto key-switches c (coefficient domain, `level` limbs; cn its
// optional NTT-domain copy, see reduceGroups) against ksk in one shot,
// accumulating the switched halves into acc0/acc1 (NTT domain, level
// limbs). perm is the automorphism gather applied to the digits (nil ⇒
// identity, see applyInto). With closeNTT the output limbs are
// inverse-NTT'd inside the divide stage and acc0/acc1 land in the
// coefficient domain.
func (p *Parameters) switchInto(c, cn *ring.Poly, level int, ksk *SwitchingKey, perm []int32, acc0, acc1 *ring.Poly, closeNTT bool) {
	rqp := p.RingQPAt(level)
	s0 := rqp.GetPolyUninit()
	s1 := rqp.GetPolyUninit()
	p.switchQP(c, cn, level, ksk, perm, s0, s1, false)
	p.modDownPair(s0, s1, level, acc0, acc1, closeNTT)
}

// switchQP is stages 1–2 of a single-shot switch: Σ_j σ(D_j(c))·ksk_j over
// the QP basis (NTT domain) — P times the switched pair, before any
// ModDown — written into s0/s1, or added onto them with add. Each in-flight
// task holds its limb's β digit rows.
func (p *Parameters) switchQP(c, cn *ring.Poly, level int, ksk *SwitchingKey, perm []int32, s0, s1 *ring.Poly, add bool) {
	if level > ksk.Level {
		panic("ckks: ciphertext level exceeds switching-key depth")
	}
	n := p.N()
	rqp := p.RingQPAt(level)
	grp := p.reduceGroups(c, cn, level)
	rqp.Engine().Run(level+p.SpecialLimbs, func(m int) {
		dig := lanes.GetMatrix(len(grp), n)
		for j := range grp {
			grp[j].raiseLimb(rqp, m, dig.Rows[j])
		}
		rqp.MulPairRows(m, perm, dig.Rows, ksk.H0, ksk.H1, ksk.keyLimb(level, m), s0.Coeffs[m], s1.Coeffs[m], add)
		lanes.PutMatrix(dig)
	})
	releaseGroups(grp)
}

// hoist decomposes c (coefficient domain, `level` limbs; cn its optional
// NTT-domain copy) into its β = ⌈level/α⌉ group digits, each raised to the
// extended QP basis and transformed — β·(level+k) NTTs, less the level
// own-group rows cn supplies, paid once per input ciphertext however many
// applies consume it.
func (p *Parameters) hoist(c, cn *ring.Poly, level int) *hoistedDigits {
	rqp := p.RingQPAt(level)
	grp := p.reduceGroups(c, cn, level)
	beta, limbs := len(grp), level+p.SpecialLimbs
	h := &hoistedDigits{level: level, dig: make([]*ring.Poly, beta), rows: make([][]uint64, limbs*beta)}
	for j := range h.dig {
		h.dig[j] = rqp.GetPolyUninit() // every row fully overwritten below
		h.dig[j].IsNTT = true
		for m, row := range h.dig[j].Coeffs {
			h.rows[m*beta+j] = row
		}
	}
	rqp.Engine().Run(limbs, func(m int) {
		for j := range grp {
			grp[j].raiseLimb(rqp, m, h.dig[j].Coeffs[m])
		}
	})
	releaseGroups(grp)
	return h
}

// releaseDigits returns the decomposition's pooled storage.
func (p *Parameters) releaseDigits(h *hoistedDigits) {
	rl := p.RingAt(h.level)
	for _, d := range h.dig {
		rl.PutPoly(d)
	}
}

// applyInto accumulates the key switch of the hoisted digits into
// (acc0, acc1) — NTT domain, h.level limbs: macQP, then the paired ModDown
// by P into the Q-basis accumulators, landing in the coefficient domain
// when closeNTT is set.
func (p *Parameters) applyInto(h *hoistedDigits, ksk *SwitchingKey, perm []int32, acc0, acc1 *ring.Poly, closeNTT bool) {
	rqp := p.RingQPAt(h.level)
	s0 := rqp.GetPolyUninit()
	s1 := rqp.GetPolyUninit()
	p.macQP(h, ksk, perm, s0, s1, false)
	p.modDownPair(s0, s1, h.level, acc0, acc1, closeNTT)
}

// macQP is the MAC over hoisted digits: Σ_j σ(D_j)·ksk_j over the extended
// QP basis (NTT domain), written into s0/s1 or added onto them with add.
// Key limbs are addressed through the depth-capped key's geometry, so a
// level-ℓ switch reads rows 0..ℓ-1 and the P tail of each Level-limb key
// row. σ (perm, nil ⇒ identity) is applied to the digits: because σ is a
// ring automorphism, Σ σ(D_j)·P·δ_j·σ(f) = σ(Σ D_j·P·δ_j·f) — the same
// result as decomposing σ(c), with the decomposition (and its NTTs) paid
// once.
func (p *Parameters) macQP(h *hoistedDigits, ksk *SwitchingKey, perm []int32, s0, s1 *ring.Poly, add bool) {
	level := h.level
	if level > ksk.Level {
		panic("ckks: ciphertext level exceeds switching-key depth")
	}
	rqp := p.RingQPAt(level)
	beta := len(h.dig)
	rqp.Engine().Run(level+p.SpecialLimbs, func(m int) {
		rqp.MulPairRows(m, perm, h.rows[m*beta:(m+1)*beta], ksk.H0, ksk.H1, ksk.keyLimb(level, m), s0.Coeffs[m], s1.Coeffs[m], add)
	})
}

// modDownPair closes a switch: modDown of both halves at once, the form
// every single-shot and hoisted switch ends in.
func (p *Parameters) modDownPair(s0, s1 *ring.Poly, level int, acc0, acc1 *ring.Poly, closeNTT bool) {
	p.modDown([]*ring.Poly{s0, s1}, []*ring.Poly{acc0, acc1}, level, closeNTT)
}

// modDown is stages 3–5: for each half h (one or two) it adds
// round(s[h]/P) to out[h] (NTT domain, level limbs), every half in the
// same dispatches. s[h] are NTT-domain accumulators over the QP basis;
// they are consumed and returned to the pool. With closeNTT each output
// limb is inverse-NTT'd as its divide finishes.
func (p *Parameters) modDown(src, dst []*ring.Poly, level int, closeNTT bool) {
	n, k := p.N(), p.SpecialLimbs
	rq, rqp := p.RingAt(level), p.RingQPAt(level)
	eng := rq.Engine()
	mext := p.modDownExtender(level)
	var s, out [2]*ring.Poly // arrays the lane closures copy: no heap escape
	for h := range src {
		s[h], out[h] = src[h], dst[h]
	}
	halves := len(src)
	p.counts.modDown(halves)

	// Stage 3: every half's P residues back to the coefficient domain.
	eng.Run(halves*k, func(t int) {
		p.ringP.InverseLimb(t%k, s[t/k].Coeffs[level+t%k])
	})

	// Stage 4: source reduction of the P → Q_ℓ conversion.
	var yP [2]*lanes.Matrix
	var vP [2][]uint64
	for h := 0; h < halves; h++ {
		yP[h] = lanes.GetMatrix(k, n)
		vP[h] = lanes.GetSlab(n)
	}
	runGroupChunks(eng, halves, n, func(h, lo, hi int) {
		mext.ReduceRange(s[h].Coeffs[level:], yP[h].Rows, vP[h], lo, hi)
	})

	// Stage 5: per-limb combine → NTT → rounding divide into the caller's
	// accumulators.
	eng.Run(halves*level, func(t int) {
		h, i := t/level, t%level
		row := lanes.GetSlab(n)
		mext.CombineLimb(i, yP[h].Rows, vP[h], row, 0, n)
		rq.ForwardLimb(i, row)
		rq.SubMulAddRow(i, p.pInvModQ[i], s[h].Coeffs[i], row, out[h].Coeffs[i])
		lanes.PutSlab(row)
		if closeNTT {
			rq.InverseLimb(i, out[h].Coeffs[i])
		}
	})
	for h := 0; h < halves; h++ {
		if closeNTT {
			out[h].IsNTT = false
		}
		lanes.PutMatrix(yP[h])
		lanes.PutSlab(vP[h])
		rqp.PutPoly(s[h])
	}
}

// ---------------------------------------------------------------------
// Relinearization
// ---------------------------------------------------------------------

// RelinearizationKey switches s² mass back to s.
type RelinearizationKey struct{ K *SwitchingKey }

// hybridRelinStreamBase seeds the relinearization key's sampling streams
// (rotation keys draw from per-element windows at 2^53, see
// hybridRotationStreamBase). The values are part of the key derivation:
// changing them changes every exported key.
const hybridRelinStreamBase = 1 << 52

// GenRelinearizationKeyHybridAt derives the hybrid relinearization key
// capped at `depth` limbs. The secret is re-derived from the generator's
// seed and expanded onto the extended basis (the stored SecretKey carries
// only Q limbs), so no argument is needed beyond the depth.
func (kg *KeyGenerator) GenRelinearizationKeyHybridAt(depth int) *RelinearizationKey {
	if depth < 1 || depth > kg.params.MaxLevel() {
		panic("ckks: relinearization-key depth out of range")
	}
	s := kg.secretQP(depth)
	defer kg.params.RingQPAt(depth).PutPoly(s)
	return kg.relinKey(s, depth)
}

// relinKey is GenRelinearizationKeyHybridAt over the caller's secretQP(depth).
func (kg *KeyGenerator) relinKey(s *ring.Poly, depth int) *RelinearizationKey {
	rqp := kg.params.RingQPAt(depth)
	s2 := rqp.GetPolyUninit() // MulCoeffs fully overwrites
	rqp.MulCoeffs(s, s, s2)
	rlk := &RelinearizationKey{K: kg.genHybridSwitchingKey(s, s2, depth, hybridRelinStreamBase)}
	rqp.PutPoly(s2)
	return rlk
}

// MulRelin multiplies two ciphertexts and relinearizes the degree-2 term:
// (a0,a1)·(b0,b1) → (a0b0 + ks0, a0b1 + a1b0 + ks1) where (ks0, ks1) is
// the switched a1b1. The result's scale is the product of scales; rescale
// afterwards. The operands' level must not exceed rlk's depth. All scratch
// is pooled; only the returned ciphertext is freshly allocated.
func (ev *Evaluator) MulRelin(a, b *Ciphertext, rlk *RelinearizationKey) *Ciphertext {
	sameLevelScale(a, b)
	return ev.mulRelinUnchecked(a, b, rlk)
}

// mulRelinUnchecked is MulRelin without the equal-scale precondition: the
// operands' levels must match, but their scales may differ (the result's
// scale is still the product). EvalPoly's giant steps rely on this — the
// quotient branch is deliberately evaluated at scale S·q/S_giant so the
// product lands back on the schedule's target after rescaling.
func (ev *Evaluator) mulRelinUnchecked(a, b *Ciphertext, rlk *RelinearizationKey) *Ciphertext {
	if a.Level != b.Level {
		panic("ckks: ciphertext level mismatch")
	}
	level := a.Level
	if level > rlk.K.Level {
		panic("ckks: ciphertext level exceeds relinearization-key depth")
	}
	rl := ev.ringAt(level)

	a0 := rl.GetPolyCopy(a.C0)
	a1 := rl.GetPolyCopy(a.C1)
	b0 := rl.GetPolyCopy(b.C0)
	b1 := rl.GetPolyCopy(b.C1)
	rl.NTT(a0)
	rl.NTT(a1)
	rl.NTT(b0)
	rl.NTT(b1)

	c0 := rl.NewPoly() // returned — caller-owned, never pooled
	c1 := rl.NewPoly()
	c2 := rl.GetPolyUninit()
	rl.MulCoeffs(a0, b0, c0)    // a0·b0
	rl.MulCoeffs(a0, b1, c1)    // a0·b1
	rl.MulCoeffsAdd(a1, b0, c1) // + a1·b0
	rl.MulCoeffs(a1, b1, c2)    // the degree-2 term
	rl.PutPoly(a0)
	rl.PutPoly(b0)
	rl.PutPoly(b1)

	// Key-switch c2 straight into the result halves, closing INTTs folded
	// into the switch's last stage. The source reduction reads the
	// coefficient domain (a1's storage, dead by now, takes that copy); the
	// own-group digit rows copy from c2 as it is.
	for i := range c2.Coeffs {
		copy(a1.Coeffs[i], c2.Coeffs[i])
	}
	rl.INTT(a1)
	ev.params.switchInto(a1, c2, level, rlk.K, nil, c0, c1, true)
	rl.PutPoly(a1)
	rl.PutPoly(c2)
	return &Ciphertext{C0: c0, C1: c1, Level: level, Scale: a.Scale * b.Scale}
}

// ---------------------------------------------------------------------
// Rotations (Galois automorphisms)
// ---------------------------------------------------------------------

// GaloisElement returns the automorphism generator for a rotation by k
// slots: 5^k mod 2N (k may be negative).
func (p *Parameters) GaloisElement(k int) int {
	m := 2 * p.N()
	// order of 5 in (Z/2N)* is N/2; normalize k into [0, N/2).
	g := 1
	for i, n := 0, p.NormalizeStep(k); i < n; i++ {
		g = g * 5 % m
	}
	return g
}

// GaloisElementConjugate is the generator of complex conjugation: -1 mod 2N.
func (p *Parameters) GaloisElementConjugate() int { return 2*p.N() - 1 }

// NormalizeStep reduces a rotation step into [0, Slots): rotations act on
// the N/2 message slots, and 5 has order N/2 in (Z/2N)*.
func (p *Parameters) NormalizeStep(k int) int {
	half := p.Slots()
	return ((k % half) + half) % half
}

// RotationKey enables rotation by one fixed Galois element. Perm is the
// NTT-domain permutation realizing the automorphism on hoisted digits.
type RotationKey struct {
	G    int
	K    *SwitchingKey
	Perm []int32
}

// hybridRotationStreamBase seeds a rotation key's sampling streams; Galois
// elements are < 2N ≤ 2^18 and each switching key consumes well under 2^20
// streams, so the per-element windows are disjoint (and disjoint from the
// relinearization base at 2^52).
func hybridRotationStreamBase(g int) uint64 { return 1<<53 + uint64(g)<<20 }

// GenRotationKeyHybridAt derives the hybrid rotation key for Galois
// element g capped at `depth` limbs: it switches s(X^g) mass back to s
// over the raised modulus. Like the hybrid relinearization key, the
// secret is re-derived from the seed onto the extended basis.
func (kg *KeyGenerator) GenRotationKeyHybridAt(g, depth int) *RotationKey {
	if depth < 1 || depth > kg.params.MaxLevel() {
		panic("ckks: rotation-key depth out of range")
	}
	s := kg.secretQP(depth)
	defer kg.params.RingQPAt(depth).PutPoly(s)
	return kg.rotationKey(s, g, depth)
}

// rotationKey is GenRotationKeyHybridAt over the caller's secretQP(depth).
// s(X^g) is the NTT-domain gather by the permutation the key stores — the
// same residues as INTT → X^g → NTT, with no limb transform.
func (kg *KeyGenerator) rotationKey(s *ring.Poly, g, depth int) *RotationKey {
	rqp := kg.params.RingQPAt(depth)
	perm := kg.params.Ring().GaloisPermNTT(g)
	sg := rqp.GetPolyUninit() // PermuteNTT writes every index
	rqp.PermuteNTT(s, perm, sg)
	rk := &RotationKey{G: g, K: kg.genHybridSwitchingKey(s, sg, depth, hybridRotationStreamBase(g)), Perm: perm}
	rqp.PutPoly(sg)
	return rk
}

// RotateGalois applies the automorphism X → X^g and key-switches back to
// s. With g = GaloisElement(k) this rotates the message slots by k. The
// decomposition is consumed once, so the switch runs single-shot.
func (ev *Evaluator) RotateGalois(ct *Ciphertext, rk *RotationKey) *Ciphertext {
	return ev.rotate(ct, nil, rk)
}

// RotateHoisted rotates one ciphertext by every key in rks, paying the
// decomposition (β·(L+k) NTTs) once: each additional rotation costs only
// the O(N)-per-limb gather-multiply-accumulate and the closing ModDown.
// Results are index-aligned with rks.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rks []*RotationKey) []*Ciphertext {
	if len(rks) == 0 {
		return nil
	}
	h := ev.params.hoist(ct.C1, nil, ct.Level)
	out := make([]*Ciphertext, len(rks))
	for i, rk := range rks {
		out[i] = ev.rotate(ct, h, rk)
	}
	ev.params.releaseDigits(h)
	return out
}

// rotate finishes one rotation of ct: the permuted key switch of ct.C1 —
// from its hoisted decomposition h, or single-shot when h is nil — lands
// directly in the result halves in the coefficient domain, then σ(c0) is
// added there.
func (ev *Evaluator) rotate(ct *Ciphertext, h *hoistedDigits, rk *RotationKey) *Ciphertext {
	level := ct.Level
	if level > rk.K.Level {
		panic("ckks: ciphertext level exceeds rotation-key depth")
	}
	rl := ev.ringAt(level)
	out0 := rl.NewPoly() // returned — caller-owned, never pooled
	out1 := rl.NewPoly()
	out0.IsNTT, out1.IsNTT = true, true
	if h == nil {
		ev.params.switchInto(ct.C1, nil, level, rk.K, rk.Perm, out0, out1, true)
	} else {
		ev.params.applyInto(h, rk.K, rk.Perm, out0, out1, true)
	}

	c0g := rl.GetPolyUninit() // automorphism writes every index
	rl.AutomorphismCoeff(ct.C0, rk.G, c0g)
	rl.Add(out0, c0g, out0)
	rl.PutPoly(c0g)

	return &Ciphertext{C0: out0, C1: out1, Level: level, Scale: ct.Scale}
}
