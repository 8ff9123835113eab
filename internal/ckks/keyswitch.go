package ckks

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/lanes"
	"repro/internal/mod"
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
//	            it, then MulPairRows over all β rows and both key halves
//	            (decoded from their narrow rows a keyTile of coefficients
//	            at a time) writes (or adds onto) the limb's accumulator
//	            rows once. Given the source's NTT form, the own-limb rows copy
//	            from it and skip their transform: β(level+k) − level NTTs
//	            instead of β(level+k).
//	3. intt-P   k limb tasks per half: the P rows back to coefficients.
//	4. reduce-P C chunk tasks per half: ReduceRange of the P residues.
//	5. divide   level limb tasks per half: CombineLimb (P → Q_ℓ), then the
//	            rounding divide out += (acc − ext)·P⁻¹. An NTT-domain output
//	            forward-transforms the ext row and subtracts it there. A
//	            closing output (closeNTT) never transforms ext: the inverse
//	            NTT is linear mod q, so it adds acc·P⁻¹ in the NTT domain,
//	            inverse-transforms the limb, and subtracts ext·P⁻¹ in the
//	            coefficient domain — the same residues, ℓ forward NTTs fewer
//	            per half (modDown runs 3–5 for one half or, as modDownPair,
//	            both at once).
//
// The entry points compose those stages. switchQP is stages 1–2 for any
// number of switches over one decomposition: stage 2 holds β pooled rows
// per in-flight limb task (workers·β·N words), raises and transforms them
// once, and runs every switch's MAC over them — the Galois element of a
// rotation applied as an NTT-domain gather — so the β·(level+k)·N digit
// buffer never exists however many switches share it. switchInto is the
// single-switch form closed by modDownPair (MulRelin). Rotations
// (RotateGalois, RotateHoisted) hand switchQP one switch per key and close
// each through its own modDownPair. LinearTransform calls the stages
// directly (double hoisting, lintrans.go): one switchQP runs all its baby
// MACs, those and the giant switchQPs stay in Q·P, one single-half modDown
// feeds each giant decomposition, and one modDownPair closes the
// transform. Callers that hold the source's NTT form pass it (MulRelin's
// c2, the transform's c1 and block sums); the result is byte-identical
// either way.
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
	// (q_0..q_{Level-1}, p_0..p_{α-1}), resident at the chain's width
	// (ring.NarrowPoly: 5 B per residue for primes below 2^40). a_j is
	// the uniform mask, a function of the public mask seed (regenMaskRow).
	H0, H1 []ring.NarrowPoly
	Alpha  int // group size α (== Parameters.SpecialLimbs)

	Level int
}

// ResidentBytes is the memory the key's rows hold: both halves of every
// group row, at their resident width.
func (k *SwitchingKey) ResidentBytes() int {
	n := 0
	for j := range k.H0 {
		n += k.H0[j].Bytes() + k.H1[j].Bytes()
	}
	return n
}

// maskStream is the PRNG stream of row j's mask a_j in the switching key
// whose sampling window starts at base; the row's error draws from
// maskStream+1 on the secret seed.
func maskStream(base uint64, j int) uint64 { return base + 2*uint64(j) + 2 }

// regenMaskRow fills a (scratch over rqp) with row j's mask
// a_j = Uniform(maskSeed, maskStream(base, j)) in the NTT domain and
// installs its narrow form as ksk.H1[j]. Key generation and
// evaluation-key import both build every mask row here, so the rows a
// receiver regenerates are the generator's by construction.
func (ksk *SwitchingKey) regenMaskRow(rqp *ring.Ring, maskSeed [16]byte, base uint64, j int, a *ring.Poly) {
	regenMask(rqp, maskSeed, maskStream(base, j), a)
	ksk.H1[j] = rqp.Narrow(a)
}

// genHybridSwitchingKey builds the hybrid key that moves polynomial mass
// multiplied by fQP back to the secret: one row per decomposition group
// over the extended basis. sQP and fQP must be NTT-domain polynomials over
// RingQPAt(depth). Row j draws its mask from the public mask seed on
// stream streamBase+2j+2 and its error from the secret seed on +2j+3, so
// the β rows are independent lane tasks (their limb kernels nest inside
// the row task) and regeneration from the same seed is byte-identical at
// any worker count. Each row is computed in pooled words and kept narrow.
func (kg *KeyGenerator) genHybridSwitchingKey(sQP, fQP *ring.Poly, depth int, streamBase uint64) *SwitchingKey {
	p := kg.params
	rqp := p.RingQPAt(depth)
	beta := p.DnumAt(depth)
	ksk := &SwitchingKey{
		Alpha: p.SpecialLimbs, Level: depth,
		H0: make([]ring.NarrowPoly, beta), H1: make([]ring.NarrowPoly, beta),
	}
	rqp.Engine().Run(beta, func(j int) {
		a := rqp.GetPolyUninit() // regenMask overwrites every word
		ksk.regenMaskRow(rqp, kg.maskSeed, streamBase, j, a)

		e := rqp.GetPolyUninit() // sampler fully overwrites
		rqp.GaussianPoly(prng.NewSource(kg.seed, maskStream(streamBase, j)+1), e)
		rqp.NTT(e)

		b := rqp.GetPolyUninit() // MulCoeffs overwrites
		rqp.MulCoeffs(a, sQP, b)
		rqp.Neg(b, b)
		rqp.Add(b, e, b)
		rqp.PutPoly(e)
		rqp.PutPoly(a)

		// + P·δ_j·f: the gadget term touches only group-j limbs (it is 0 on
		// the other Q limbs and ≡ 0 mod every special prime).
		// Barrett row form, no division per coefficient.
		lo, hi := p.groupRange(depth, j)
		for i := lo; i < hi; i++ {
			m := rqp.Basis.Moduli[i]
			q, bhi, blo, sc := m.Q, m.BHi, m.BLo, p.pModQ[i]
			bi := b.Coeffs[i]
			fi := fQP.Coeffs[i][:len(bi)]
			for x := range bi {
				ph, pl := bits.Mul64(fi[x], sc)
				bi[x] = m.Add(bi[x], mod.Reduce128(ph, pl, q, bhi, blo))
			}
		}
		ksk.H0[j] = rqp.Narrow(b)
		rqp.PutPoly(b)
	})
	return ksk
}

// switchCounts tallies key-switch work for tests that pin the schedule's
// shape: ModDown halves closed, digit rows forward-transformed by a
// decomposition, and limbs forward-transformed inside ModDown's divide.
// Parameters.counts is nil in production, and every method is a no-op on
// a nil receiver.
type switchCounts struct {
	modDownHalves atomic.Int64
	digitNTTs     atomic.Int64
	modDownNTTs   atomic.Int64
}

func (c *switchCounts) modDown(halves int) {
	if c != nil {
		c.modDownHalves.Add(int64(halves))
	}
}

func (c *switchCounts) modDownNTT() {
	if c != nil {
		c.modDownNTTs.Add(1)
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
	qp := p.qpAt(level)
	grp := make([]reducedGroup, len(qp.grp))
	for j := range grp {
		lo, hi := p.groupRange(level, j)
		grp[j] = reducedGroup{
			src: c.Coeffs[lo:hi], lo: lo, ext: qp.grp[j],
			y: lanes.GetMatrix(hi-lo, n), v: lanes.GetSlab(n), counts: p.counts,
		}
		if cn != nil {
			grp[j].srcNTT = cn.Coeffs[lo:hi]
		}
	}
	qp.ring.Engine().RunGroupChunks(len(grp), n, func(j, lo, hi int) {
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
// identity, see switchQP). With closeNTT the output limbs are
// inverse-NTT'd inside the divide stage and acc0/acc1 land in the
// coefficient domain.
func (p *Parameters) switchInto(c, cn *ring.Poly, level int, ksk *SwitchingKey, perm []int32, acc0, acc1 *ring.Poly, closeNTT bool) {
	rqp := p.RingQPAt(level)
	s0 := rqp.GetPolyUninit()
	s1 := rqp.GetPolyUninit()
	p.switchQP(c, cn, level, false, qpSwitch{ksk, perm, s0, s1})
	p.modDownPair(s0, s1, level, acc0, acc1, closeNTT)
}

// qpSwitch is one key switch a decomposition feeds in switchQP: the key,
// the automorphism gather applied to the digits (nil ⇒ identity), and the
// Q·P pair (NTT domain) its MAC lands in.
type qpSwitch struct {
	ksk    *SwitchingKey
	perm   []int32
	s0, s1 *ring.Poly
}

// switchQP is stages 1–2 for every switch in sw over one decomposition of
// c: Σ_j σ(D_j(c))·ksk_j over the QP basis (NTT domain) — P times the
// switched pair, before any ModDown — written into each s0/s1, or added
// onto them with add. Each in-flight limb task raises its β digit rows once
// and runs every switch's MAC over them, so the decomposition costs one
// set of digit NTTs however many switches share it (rotations by several
// keys, LinearTransform's babies) and never exists beyond the task's β
// rows. The key rows are resident narrow; each MAC call reads them decoded
// into a per-task tile of keyTile coefficients. Key limbs are addressed
// through the depth-capped key's geometry (keyLimb). A switch's perm σ is applied to the digits: because σ is a
// ring automorphism, Σ σ(D_j)·P·δ_j·σ(f) = σ(Σ D_j·P·δ_j·f) — the result
// of decomposing σ(c), from the one decomposition of c.
func (p *Parameters) switchQP(c, cn *ring.Poly, level int, add bool, sw ...qpSwitch) {
	for _, w := range sw {
		if level > w.ksk.Level {
			panic("ckks: ciphertext level exceeds switching-key depth")
		}
	}
	n := p.N()
	rqp := p.RingQPAt(level)
	grp := p.reduceGroups(c, cn, level)
	tile := min(n, keyTile)
	rqp.Engine().Run(level+p.SpecialLimbs, func(m int) {
		dig := lanes.GetMatrix(len(grp), n)
		for j := range grp {
			grp[j].raiseLimb(rqp, m, dig.Rows[j])
		}
		kt := lanes.GetMatrix(2*len(grp), tile)
		k0, k1 := kt.Rows[:len(grp)], kt.Rows[len(grp):]
		for _, w := range sw {
			km := w.ksk.keyLimb(level, m)
			for off := 0; off < n; off += tile {
				for j := range grp {
					w.ksk.H0[j].Load(km, off, k0[j])
					w.ksk.H1[j].Load(km, off, k1[j])
				}
				rqp.MulPairRows(m, w.perm, dig.Rows, k0, k1, off, w.s0.Coeffs[m][off:off+tile], w.s1.Coeffs[m][off:off+tile], add)
			}
		}
		lanes.PutMatrix(kt)
		lanes.PutMatrix(dig)
	})
	releaseGroups(grp)
}

// keyTile is the coefficient span of the key-row tile switchQP decodes
// narrow key rows into before each MAC call: 2β rows of it stay in cache
// (96 KB at β = 6) while the MAC streams the digit rows.
const keyTile = 1024

// modDownPair closes a switch: modDown of both halves at once, the form
// every MulRelin and rotation ends in.
func (p *Parameters) modDownPair(s0, s1 *ring.Poly, level int, acc0, acc1 *ring.Poly, closeNTT bool) {
	p.modDown([]*ring.Poly{s0, s1}, []*ring.Poly{acc0, acc1}, level, closeNTT)
}

// modDown is stages 3–5: for each half h (one or two) it adds
// round(s[h]/P) to out[h] (NTT domain, level limbs), every half in the
// same dispatches. s[h] are NTT-domain accumulators over the QP basis;
// they are consumed and returned to the pool. round(s/P) is
// (s − ext)·P⁻¹, ext the P residues converted to Q_ℓ — a coefficient-
// domain row. Without closeNTT each ext row is forward-transformed and
// the divide runs in the NTT domain. With closeNTT out[h] lands in the
// coefficient domain and ext stays there: out + s·P⁻¹ is added in the NTT
// domain, the limb inverse-transformed, and ext·P⁻¹ subtracted after it —
// the inverse NTT is linear mod q, so the residues are the ones the
// transform-then-divide order gives, without the forward NTT.
func (p *Parameters) modDown(src, dst []*ring.Poly, level int, closeNTT bool) {
	n, k := p.N(), p.SpecialLimbs
	rq, qp := p.RingAt(level), p.qpAt(level)
	eng := rq.Engine()
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
	eng.RunGroupChunks(halves, n, func(h, lo, hi int) {
		qp.down.ReduceRange(s[h].Coeffs[level:], yP[h].Rows, vP[h], lo, hi)
	})

	// Stage 5: per-limb combine → rounding divide into the caller's
	// accumulators, closed in the coefficient domain or transformed first.
	eng.Run(halves*level, func(t int) {
		h, i := t/level, t%level
		row := lanes.GetSlab(n)
		qp.down.CombineLimb(i, yP[h].Rows, vP[h], row, 0, n)
		inv, oi := p.pInvModQ[i], out[h].Coeffs[i]
		if closeNTT {
			rq.MulScalarAddRow(i, inv, s[h].Coeffs[i], oi)
			rq.InverseLimb(i, oi)
			rq.MulScalarAddRow(i, rq.Basis.Moduli[i].Neg(inv), row, oi)
		} else {
			rq.ForwardLimb(i, row)
			p.counts.modDownNTT()
			rq.SubMulAddRow(i, inv, s[h].Coeffs[i], row, oi)
		}
		lanes.PutSlab(row)
	})
	for h := 0; h < halves; h++ {
		if closeNTT {
			out[h].IsNTT = false
		}
		lanes.PutMatrix(yP[h])
		lanes.PutSlab(vP[h])
		qp.ring.PutPoly(s[h])
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
// is pooled, and so is the returned ciphertext's storage.
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
	rl.NTT(a0)
	rl.NTT(a1)
	b0, b1 := a0, a1 // a squaring transforms its one operand once
	if b != a {
		b0 = rl.GetPolyCopy(b.C0)
		b1 = rl.GetPolyCopy(b.C1)
		rl.NTT(b0)
		rl.NTT(b1)
	}

	c0 := rl.GetPolyUninit() // returned; MulCoeffs writes every index
	c1 := rl.GetPolyUninit()
	c2 := rl.GetPolyUninit()
	rl.MulCoeffs(a0, b0, c0)    // a0·b0
	rl.MulCoeffs(a0, b1, c1)    // a0·b1
	rl.MulCoeffsAdd(a1, b0, c1) // + a1·b0
	rl.MulCoeffs(a1, b1, c2)    // the degree-2 term
	rl.PutPoly(a0)
	if b != a {
		rl.PutPoly(b0)
		rl.PutPoly(b1)
	}

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
// NTT-domain permutation realizing the automorphism on the digits.
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
// s. With g = GaloisElement(k) this rotates the message slots by k.
func (ev *Evaluator) RotateGalois(ct *Ciphertext, rk *RotationKey) *Ciphertext {
	var out [1]*Ciphertext
	ev.rotate(ct, []*RotationKey{rk}, out[:])
	return out[0]
}

// RotateHoisted rotates one ciphertext by every key in rks, paying the
// decomposition (β·(L+k) NTTs) once: each additional rotation costs only
// the O(N)-per-limb gather-multiply-accumulate and the closing ModDown.
// Results are index-aligned with rks.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rks []*RotationKey) []*Ciphertext {
	if len(rks) == 0 {
		return nil
	}
	out := make([]*Ciphertext, len(rks))
	ev.rotate(ct, rks, out)
	return out
}

// rotate writes ct rotated by rks[i] to out[i]. One switchQP runs every
// key's permuted MAC over a single decomposition of ct.C1, so the digits
// are raised and transformed once and never stored; each rotation then
// closes through its own paired ModDown straight into the result halves
// in the coefficient domain, where σ(c0) is added.
func (ev *Evaluator) rotate(ct *Ciphertext, rks []*RotationKey, out []*Ciphertext) {
	level := ct.Level
	rl, rqp := ev.ringAt(level), ev.params.RingQPAt(level)
	sw := make([]qpSwitch, len(rks))
	for i, rk := range rks {
		if level > rk.K.Level {
			panic("ckks: ciphertext level exceeds rotation-key depth")
		}
		sw[i] = qpSwitch{rk.K, rk.Perm, rqp.GetPolyUninit(), rqp.GetPolyUninit()}
	}
	ev.params.switchQP(ct.C1, nil, level, false, sw...)

	c0g := rl.GetPolyUninit() // automorphism writes every index
	for i, rk := range rks {
		out0 := rl.GetPoly() // returned; zeroed, the ModDown accumulates onto it
		out1 := rl.GetPoly()
		out0.IsNTT, out1.IsNTT = true, true
		ev.params.modDownPair(sw[i].s0, sw[i].s1, level, out0, out1, true)
		rl.AutomorphismCoeff(ct.C0, rk.G, c0g)
		rl.Add(out0, c0g, out0)
		out[i] = &Ciphertext{C0: out0, C1: out1, Level: level, Scale: ct.Scale}
	}
	rl.PutPoly(c0g)
}
