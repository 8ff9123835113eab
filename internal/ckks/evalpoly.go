package ckks

import (
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/mod"
)

// Homomorphic polynomial evaluation in the Chebyshev basis with a
// baby-step/giant-step schedule — the nonlinear stage a bootstrap's
// EvalMod needs, and independently useful for sigmoid/comparison
// workloads. The input is first mapped from its interval [lo, hi] onto
// [-1, 1] (one constant multiplication, fused with the jump to the
// working scale W = 2^(rescales·LimbBits)); the Chebyshev power basis
// T_1 … T_{g−1}, T_g, T_2g, …, T_{2^{k−1}g} is then built with the
// product identity T_{a+b} = 2·T_a·T_b − T_{|a−b|}, and the coefficient
// vector is evaluated by recursive division p = q·T_gs + r — ≈√d
// relinearized ct×ct products, log-depth in the degree.
//
// Scale bookkeeping is exact: every node of the recursion is assigned a
// target (level, scale) pair top-down, and the constants are encoded at
// whatever float64 scale makes the products land on the target after
// rescaling — so additions always see operand scales equal to within
// float64 rounding (≪ the evaluator's 1e-12 tolerance), and no precision
// is lost to scale mismatches.
//
// A constant's plaintext has only coefficients 0 and N/2, so every
// constant product is a per-limb scalar multiply-add over the ciphertext
// and its X^{N/2} shift (mulConstAt) — no limb transform, no plaintext
// polynomial. Memory: the evaluation owns every product, sum and rescale
// step it makes and releases each as soon as it is dead; the power basis
// is released when the evaluation returns, so only the result stays.

// ---------------------------------------------------------------------
// Coefficient layer: monomial → Chebyshev, division by T_gs
// ---------------------------------------------------------------------

// ChebyshevCoeffs converts monomial coefficients (mono[i] multiplies x^i)
// into coefficients over the Chebyshev basis of [lo, hi]:
// p(x) = Σ out[i]·T_i(u) with u = (2x − hi − lo)/(hi − lo). O(d²) —
// the expansion of x^k is maintained incrementally via
// x·T_i = a·(T_{i+1} + T_{|i−1|})/2 + b·T_i where x = a·T_1 + b·T_0.
func ChebyshevCoeffs(mono []complex128, lo, hi float64) []complex128 {
	a := complex((hi-lo)/2, 0)
	b := complex((hi+lo)/2, 0)
	out := make([]complex128, len(mono))
	xp := make([]complex128, 1, len(mono)) // Chebyshev expansion of x^k
	xp[0] = 1
	for k, cf := range mono {
		if k > 0 {
			nxt := make([]complex128, k+1)
			for i, ci := range xp {
				nxt[i] += b * ci
				nxt[i+1] += a * ci / 2
				j := i - 1
				if j < 0 {
					j = -j
				}
				nxt[j] += a * ci / 2
			}
			xp = nxt
		}
		if cf != 0 {
			for i, v := range xp {
				out[i] += cf * v
			}
		}
	}
	return out
}

// chebSplit divides p (Chebyshev coefficients c, with gs ≤ deg < 2·gs)
// by T_gs: p = q·T_gs + rem, via T_gs·T_i = (T_{gs+i} + T_{gs−i})/2.
func chebSplit(c []complex128, gs int) (q, rem []complex128) {
	d := len(c) - 1
	q = make([]complex128, d-gs+1)
	rem = make([]complex128, gs)
	copy(rem, c[:gs])
	q[0] = c[gs]
	for i := 1; i <= d-gs; i++ {
		q[i] = 2 * c[gs+i]
		rem[gs-i] -= c[gs+i]
	}
	return q, rem
}

// ---------------------------------------------------------------------
// Schedule: baby block size, giant count, depth and level floors
// ---------------------------------------------------------------------

func ceilLog2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}

// preferredBabySpan is the ≈√(degree+1) baby block, rounded up to a
// power of two — the multiplication-count-optimal choice.
func preferredBabySpan(degree int) int {
	return 1 << uint((ceilLog2(degree+1)+1)/2)
}

// babyGiantLevels returns the giant-doubling count k for baby block g
// and the multiply-rescale stages the full evaluation consumes: the
// interval normalization, one per giant-step product along the quotient
// chain, the leaf's plaintext products, and (for g > 2) the baby-step
// ladder depth the deepest leaf sits under.
func babyGiantLevels(degree, g int) (k, levels int) {
	for gs := g; gs <= degree; gs <<= 1 {
		k++
	}
	levels = k + 2
	if g > 2 {
		levels += ceilLog2(g - 1)
	}
	return k, levels
}

// EvalPolyDepth returns the limbs EvalPoly consumes for a polynomial of
// the given degree at the preferred (≈√degree baby block) schedule;
// rescales is the preset's RescalesPerLevel. A plan built against a
// shallower level may pick a narrower baby block — trading extra ct×ct
// products for depth — so treat this as the depth of the default plan,
// and EvalPolyPlan.Depth as the committed value.
func EvalPolyDepth(degree, rescales int) int {
	if degree < 1 {
		return 0
	}
	_, levels := babyGiantLevels(degree, preferredBabySpan(degree))
	return rescales * levels
}

// EvalPolyMinLevel is the lowest input level a degree-`degree` plan can
// consume at: its depth plus the rescales+1 output floor (below that the
// remaining modulus no longer covers the working scale).
func EvalPolyMinLevel(degree, rescales int) int {
	if degree < 1 {
		return 0
	}
	return EvalPolyDepth(degree, rescales) + rescales + 1
}

// EvalPolyLevelFloor is the absolute lowest feasible input level for the
// degree across every baby block: the depth-optimal g = 2 schedule
// (narrower blocks trade extra ct×ct products for depth, so levels(g) is
// non-decreasing in g). EvalPolyMinLevel is the preferred schedule's —
// possibly deeper — floor.
func EvalPolyLevelFloor(degree, rescales int) int {
	if degree < 1 {
		return 0
	}
	_, levels := babyGiantLevels(degree, 2)
	return rescales*levels + rescales + 1
}

// EvalPolyPlan is a precomputed BSGS evaluation schedule: the Chebyshev
// coefficients over [lo, hi], the baby/giant split, and the input level
// it consumes at. Build with Parameters.NewEvalPolyPlan; immutable and
// safe to share across goroutines.
type EvalPolyPlan struct {
	cheb     []complex128
	lo, hi   float64
	level    int
	rescales int
	g, k     int // baby block (power of two ≥ 2), giant doublings
}

// Degree is the (trailing-zero-trimmed) polynomial degree.
func (p *EvalPolyPlan) Degree() int { return len(p.cheb) - 1 }

// Level is the input level the plan consumes ciphertexts at.
func (p *EvalPolyPlan) Level() int { return p.level }

// Depth is the number of limbs consumed: the output lands at
// Level() − Depth() at ≈ the working scale 2^(rescales·LimbBits).
func (p *EvalPolyPlan) Depth() int {
	_, levels := babyGiantLevels(p.Degree(), p.g)
	return p.rescales * levels
}

// KeyLevel is the highest level a relinearized product runs at (the
// first baby-step squaring) — the evaluation-key set must cover it.
func (p *EvalPolyPlan) KeyLevel() int { return p.level - p.rescales }

// BabySpan is the baby block size g the plan committed to.
func (p *EvalPolyPlan) BabySpan() int { return p.g }

// Interval returns the approximation interval the coefficients were
// rescaled to.
func (p *EvalPolyPlan) Interval() (lo, hi float64) { return p.lo, p.hi }

// MaxChebAbs is the largest |coefficient| of the Chebyshev form — the
// magnitude the public layer bounds (the interval remap can amplify
// coefficients by (width/2)^degree) before committing to a plan.
func (p *EvalPolyPlan) MaxChebAbs() float64 {
	m := 0.0
	for _, c := range p.cheb {
		if a := cmplx.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// NewEvalPolyPlan builds the schedule for the polynomial with monomial
// coefficients mono (mono[i] multiplies x^i) over [lo, hi], consuming
// its input at `level` (0 = the minimum feasible level). The baby block
// starts at the preferred ≈√degree span and halves until the schedule
// fits the level; internal misuse (degenerate polynomial, bad interval,
// infeasible level) panics — the public Server surface validates first.
func (p *Parameters) NewEvalPolyPlan(mono []complex128, lo, hi float64, level int) *EvalPolyPlan {
	d := len(mono) - 1
	for d > 0 && mono[d] == 0 {
		d--
	}
	if d < 1 {
		panic("ckks: EvalPoly needs a polynomial of degree ≥ 1")
	}
	if !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		panic("ckks: EvalPoly interval must be finite with lo < hi")
	}
	r := p.RescalesPerLevel()
	budget := level
	if budget == 0 {
		budget = p.MaxLevel()
	}
	if budget > p.MaxLevel() {
		panic("ckks: EvalPoly level exceeds the parameter depth")
	}
	var g, k int
	fits := false
	for g = preferredBabySpan(d); g >= 2; g >>= 1 {
		var levels int
		k, levels = babyGiantLevels(d, g)
		if r*levels+r+1 <= budget {
			fits = true
			break
		}
	}
	if !fits {
		panic("ckks: EvalPoly degree needs more levels than available")
	}
	if level == 0 {
		_, levels := babyGiantLevels(d, g)
		level = r*levels + r + 1
	}
	return &EvalPolyPlan{
		cheb:     ChebyshevCoeffs(mono[:d+1], lo, hi),
		lo:       lo,
		hi:       hi,
		level:    level,
		rescales: r,
		g:        g,
		k:        k,
	}
}

// ---------------------------------------------------------------------
// Constant plaintexts at arbitrary float64 scales
// ---------------------------------------------------------------------

// encodeConstInto adds round(v·scale) into coefficient j of every limb
// row, limb i over the prime of tabs[i]. The mantissa/exponent split
// mirrors Encoder.encodeCoeff, and so does the residue (pow2Table.mulPow2),
// but the scale is a float64 rather than a power-of-two log — the
// exactness the BSGS schedule's per-node target scales need.
func encodeConstInto(tabs []pow2Table, limbs [][]uint64, j int, v, scale float64) {
	if v == 0 {
		return
	}
	neg := math.Signbit(v)
	frV, expV := math.Frexp(math.Abs(v))
	frS, expS := math.Frexp(scale)
	fr, expM := math.Frexp(frV * frS)
	m := uint64(math.Round(fr * (1 << 53)))
	e := expV + expS + expM - 53
	if e < 0 {
		sh := uint(-e)
		if sh > 54 {
			return
		}
		m = (m + 1<<(sh-1)) >> sh
		e = 0
		if m == 0 {
			return
		}
	}
	tabs = tabs[:len(limbs)]
	for i, row := range limbs {
		row[j] = tabs[i].m.Add(row[j], tabs[i].mulPow2(m, e, neg))
	}
}

// mulConstAt returns ct times the constant v encoded at `scale` in every
// slot. The encoding is the plaintext re + im·X^{N/2} — coefficient 0
// carries the real part, coefficient N/2 the imaginary part (X^{N/2}
// evaluates to i at every slot root, see MulByI) — with per-limb residues
// re, im that encodeConstInto writes into a two-column buffer. Its product
// with c is re·c + im·X^{N/2}·c limb by limb, the negacyclic shift pairing
// coefficient j with j ± N/2 (negated where it wraps), so no limb is
// transformed and no plaintext polynomial exists. The two products of an
// output sum in 128 bits (< 2q² < q·2^64) and reduce once: the canonical
// residue the NTT-domain product of the same plaintext gives, byte for
// byte. The scale is ct.Scale·scale.
func (ev *Evaluator) mulConstAt(ct *Ciphertext, v complex128, scale float64) *Ciphertext {
	level := ct.Level
	rl := ev.ringAt(level)
	res := make([]uint64, 2*level)
	cols := make([][]uint64, level)
	for i := range cols {
		cols[i] = res[2*i : 2*i+2]
	}
	encodeConstInto(ev.params.pow2, cols, 0, real(v), scale)
	encodeConstInto(ev.params.pow2, cols, 1, imag(v), scale)

	out := &Ciphertext{
		C0: rl.GetPolyUninit(), C1: rl.GetPolyUninit(), // every index written below
		Level: level, Scale: ct.Scale * scale,
	}
	half := rl.N / 2
	rl.Engine().Run(2*level, func(t int) {
		i := t % level
		src, dst := ct.C0, out.C0
		if t >= level {
			src, dst = ct.C1, out.C1
		}
		m := rl.Basis.Moduli[i]
		q, bhi, blo := m.Q, m.BHi, m.BLo
		re, im := cols[i][0], cols[i][1]
		oi := dst.Coeffs[i]
		ci := src.Coeffs[i][:len(oi)]
		if im == 0 {
			for j := range oi {
				hi, lo := bits.Mul64(ci[j], re)
				oi[j] = mod.Reduce128(hi, lo, q, bhi, blo)
			}
			return
		}
		// (X^{N/2}·c)[j] = −c[j+N/2] and (X^{N/2}·c)[j+N/2] = c[j], j < N/2.
		imNeg := m.Neg(im)
		lowC, highC := ci[:half], ci[half:2*half]
		lowO, highO := oi[:half], oi[half:2*half]
		for j := range lowO {
			a, b := lowC[j], highC[j]
			hi, lo := bits.Mul64(a, re)
			hi, lo = mod.MulAdd128(hi, lo, b, imNeg)
			lowO[j] = mod.Reduce128(hi, lo, q, bhi, blo)
			hi, lo = bits.Mul64(b, re)
			hi, lo = mod.MulAdd128(hi, lo, a, im)
			highO[j] = mod.Reduce128(hi, lo, q, bhi, blo)
		}
	})
	return out
}

// addConstInto adds the constant v — encoded at the ciphertext's own
// scale — directly into ct's body half. Mutates ct: callers only pass
// results they own, never DropLevel views.
func (ev *Evaluator) addConstInto(ct *Ciphertext, v complex128) {
	rl := ev.ringAt(ct.Level)
	encodeConstInto(ev.params.pow2, ct.C0.Coeffs, 0, real(v), ct.Scale)
	encodeConstInto(ev.params.pow2, ct.C0.Coeffs, rl.N/2, imag(v), ct.Scale)
}

// ---------------------------------------------------------------------
// Scale/level plumbing
// ---------------------------------------------------------------------

// rescaleDivisor is the float64 the scale gets divided by when rescaling
// n times starting from `level` — the product of the dropped primes.
func (ev *Evaluator) rescaleDivisor(level, n int) float64 {
	d := 1.0
	for i := 0; i < n; i++ {
		d *= float64(ev.params.Ring().Basis.Moduli[level-1-i].Q)
	}
	return d
}

// rescaleN rescales ct n times and releases ct and every intermediate
// step: the caller hands ct over and keeps only the result.
func (ev *Evaluator) rescaleN(ct *Ciphertext, n int) *Ciphertext {
	for i := 0; i < n; i++ {
		next := ev.Rescale(ct)
		ev.release(ct)
		ct = next
	}
	return ct
}

// scaleAlign returns ct at exactly (level, scale): spare limbs are
// dropped, then one constant-1 product spends `rescales` limbs to land
// the scale precisely on the target — how a stored Chebyshev power (one
// ladder rung higher, scale off by the squaring drift) is brought
// alongside a product it must be subtracted from. ct is only read.
func (ev *Evaluator) scaleAlign(ct *Ciphertext, level int, scale float64, rescales int) *Ciphertext {
	mid := level + rescales
	if ct.Level > mid {
		ct = ev.DropLevel(ct, mid)
	}
	return ev.rescaleN(ev.mulConstAt(ct, 1, scale*ev.rescaleDivisor(mid, rescales)/ct.Scale), rescales)
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

type polyEvalState struct {
	ev  *Evaluator
	pl  *EvalPolyPlan
	rlk *RelinearizationKey
	pw  map[int]*Ciphertext // Chebyshev power basis T_n(u)
}

// EvalPoly evaluates the planned polynomial on ct, which must sit at
// exactly plan.Level() (DropLevel first — the public Server does). The
// output lands Depth() limbs lower at ≈ the working scale. rlk must
// cover plan.KeyLevel(). Every product, sum and rescale step is released
// as soon as it is dead, and the power basis once the evaluation returns:
// only the result stays allocated.
func (ev *Evaluator) EvalPoly(ct *Ciphertext, plan *EvalPolyPlan, rlk *RelinearizationKey) *Ciphertext {
	if ct.Level != plan.level {
		panic("ckks: ciphertext level does not match the EvalPoly plan")
	}
	r := plan.rescales
	w := math.Exp2(float64(r * ev.params.LimbBits))

	// u = αx + β ∈ [-1, 1], fused with the jump to the working scale W:
	// one constant product, the β added before the closing rescales.
	alpha := 2 / (plan.hi - plan.lo)
	beta := -(plan.hi + plan.lo) / (plan.hi - plan.lo)
	u := ev.mulConstAt(ct, complex(alpha, 0), w*ev.rescaleDivisor(plan.level, r)/ct.Scale)
	ev.addConstInto(u, complex(beta, 0))
	u = ev.rescaleN(u, r)

	st := &polyEvalState{ev: ev, pl: plan, rlk: rlk, pw: map[int]*Ciphertext{1: u}}
	for i := 2; i < plan.g; i++ {
		st.power(i)
	}
	for t := 0; t < plan.k; t++ {
		st.power(plan.g << uint(t))
	}
	out := st.eval(plan.cheb, plan.level-plan.Depth(), w)
	for _, pw := range st.pw {
		ev.release(pw)
	}
	return out
}

// power returns T_n(u), generating it (and its dependencies) on first
// use. Powers of two use T_{2m} = 2·T_m² − 1 — only a constant is
// subtracted, so no ciphertext alignment is needed; other indices use
// T_{a+b} = 2·T_a·T_b − T_{a−b} with a the top set bit, where the
// subtracted lower-order power is scale-aligned to the product (it sits
// a ladder rung higher, so the alignment costs no extra depth). The
// powers belong to the state; EvalPoly releases them.
func (st *polyEvalState) power(n int) *Ciphertext {
	if ct, ok := st.pw[n]; ok {
		return ct
	}
	ev, r := st.ev, st.pl.rescales
	var out *Ciphertext
	if n&(n-1) == 0 {
		h := st.power(n / 2)
		sq := ev.mulRelinUnchecked(h, h, st.rlk)
		out = ev.Add(sq, sq)
		ev.release(sq)
		ev.addConstInto(out, -1)
		out = ev.rescaleN(out, r)
	} else {
		a := 1 << uint(bits.Len(uint(n))-1)
		b := n - a
		ta, tb := st.power(a), st.power(b)
		lv := min(ta.Level, tb.Level)
		prod := ev.mulRelinUnchecked(ev.DropLevel(ta, lv), ev.DropLevel(tb, lv), st.rlk)
		dbl := ev.Add(prod, prod)
		ev.release(prod)
		dbl = ev.rescaleN(dbl, r)
		sub := ev.scaleAlign(st.power(a-b), dbl.Level, dbl.Scale, r)
		out = ev.Sub(dbl, sub)
		ev.release(dbl, sub)
	}
	st.pw[n] = out
	return out
}

// eval computes Σ c[i]·T_i(u) into the target (level, scale) by
// recursive division: the quotient branch is evaluated one level higher
// at scale S·q/S_giant so the giant-step product rescales onto the
// target; the remainder branch lands on the product's actual scale. The
// result is the caller's; every intermediate is released here.
func (st *polyEvalState) eval(c []complex128, level int, scale float64) *Ciphertext {
	for len(c) > 1 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	if len(c) <= st.pl.g {
		return st.leaf(c, level, scale)
	}
	ev, r := st.ev, st.pl.rescales
	deg := len(c) - 1
	gs := st.pl.g
	for gs<<1 <= deg {
		gs <<= 1
	}
	q, rem := chebSplit(c, gs)
	mid := level + r
	div := ev.rescaleDivisor(mid, r)
	tg := ev.DropLevel(st.pw[gs], mid)
	var out *Ciphertext
	if len(q) == 1 {
		// Degree-0 quotient: one constant product with the giant.
		out = ev.mulConstAt(tg, q[0], scale*div/tg.Scale)
	} else {
		qct := st.eval(q, mid, scale*div/tg.Scale)
		out = ev.mulRelinUnchecked(qct, tg, st.rlk)
		ev.release(qct)
	}
	out = ev.rescaleN(out, r)
	for _, cf := range rem {
		if cf != 0 {
			rct := st.eval(rem, level, out.Scale)
			sum := ev.Add(out, rct)
			ev.release(out, rct)
			out = sum
			break
		}
	}
	return out
}

// leaf evaluates a sub-baby-span coefficient slice as constant products
// against the power basis: every term's constant is encoded at the scale
// that makes its product land on the shared accumulation scale, one
// closing batch of rescales, and the degree-0 term added in directly.
func (st *polyEvalState) leaf(c []complex128, level int, scale float64) *Ciphertext {
	ev, r := st.ev, st.pl.rescales
	mid := level + r
	div := ev.rescaleDivisor(mid, r)
	var acc *Ciphertext
	for i := 1; i < len(c); i++ {
		if c[i] == 0 {
			continue
		}
		ti := ev.DropLevel(st.pw[i], mid)
		term := ev.mulConstAt(ti, c[i], scale*div/ti.Scale)
		if acc == nil {
			acc = term
		} else {
			sum := ev.Add(acc, term)
			ev.release(acc, term)
			acc = sum
		}
	}
	if acc == nil {
		rl := ev.ringAt(level)
		acc = &Ciphertext{C0: rl.GetPoly(), C1: rl.GetPoly(), Level: level, Scale: scale}
	} else {
		acc = ev.rescaleN(acc, r)
	}
	if c[0] != 0 {
		ev.addConstInto(acc, c[0])
	}
	return acc
}
