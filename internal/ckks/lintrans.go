package ckks

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/fftfp"
	"repro/internal/ring"
)

// Homomorphic linear transforms: plaintext matrix × encrypted vector by
// diagonal encoding, evaluated with blocked baby-step/giant-step (BSGS)
// over the hoisted key-switch path.
//
//	M·v = Σ_d diag_d(M) ⊙ rot_d(v)
//
// splits each diagonal index d = g + i (g a multiple of the block size N1,
// i ∈ [0, N1)) and regroups:
//
//	M·v = Σ_g rot_g( Σ_i rot_{−g}(diag_{g+i}) ⊙ rot_i(v) )
//
// so the ciphertext is rotated only |babies| + |giants| times instead of
// once per diagonal. The pre-rotations rot_{−g} of the diagonals are
// free: they happen at encode time.
//
// The evaluation is double-hoisted (Bossuat et al., eprint 2020/1203):
//
//   - every baby rotation shares ONE gadget decomposition of the input's
//     c1 and stays in the extended basis Q·P — the MAC output is P times
//     the rotated ciphertext, and no baby pays a ModDown;
//   - the diagonals carry their P limbs, so each giant block sums its
//     baby products over Q·P, ModDowns only the c1 half of the block sum
//     (the decomposition reads a Q-basis polynomial) and accumulates the
//     giant rotation's MAC into a Q·P result, again without a ModDown;
//   - one paired ModDown closes the whole transform.
//
// A transform of b nonzero baby and g nonzero giant steps so runs g
// single-half ModDowns plus one pair, against b + g pairs if every
// rotation closed its own switch, and rounds once per block instead of
// once per rotation.
//
// The instantiation that matters for bootstrapping is the homomorphic
// DFT (CoeffsToSlots/SlotsToCoeffs): the special FFT factored into
// `levels` grouped butterfly products (internal/fftfp/dftmat.go), one
// LinearTransform per group.

// LinearTransform is a plaintext matrix in BSGS diagonal form at a fixed
// level. Diagonals are pre-rotated by their giant step and encoded at
// scale 2^(Rescales·LimbBits), so the built-in rescales return the output
// to (approximately, and exactly tracked by the float Scale) the input's
// scale. They are encoded on the first evaluation, NTT-domain over the
// level's Q·P basis: until then the transform holds only the slot
// vectors, so a transform that is never applied never holds encoded
// diagonals. Build with Encoder.NewLinearTransform; evaluate with
// Evaluator.LinearTransform. Safe for concurrent evaluation, the first
// one included.
type LinearTransform struct {
	Level    int     // input (and encoding) level; output lands Rescales below
	N1       int     // baby-step block size
	PtScale  float64 // scale the diagonals are encoded at
	Rescales int     // rescales folded into evaluation

	slots      int
	groups     map[int][]ltTerm // giant step → terms, term order fixed at build
	babySteps  []int            // ascending, 0 included when used
	giantSteps []int            // ascending, 0 included when used

	once sync.Once // encodes every term's diagonal on first evaluation
	enc  *Encoder  // nil once encoded
}

// ltTerm is one diagonal's contribution: the baby step it multiplies, and
// the diagonal pre-rotated by its giant step — as a slot vector until the
// first evaluation, then as an NTT-domain plaintext polynomial over Q·P.
type ltTerm struct {
	baby int
	vec  []complex128
	poly *ring.Poly
}

// encode expands every term's slot vector into its Q·P plaintext and
// drops the vector — the body of lt.once.
func (lt *LinearTransform) encode() {
	p := lt.enc.params
	rqp := p.RingQPAt(lt.Level)
	logScale := lt.Rescales * p.LimbBits
	for _, terms := range lt.groups {
		for i := range terms {
			t := &terms[i]
			t.poly = rqp.NewPoly()
			lt.enc.expandRNS(lt.enc.toCoeffs(t.vec), logScale, t.poly.Coeffs[:lt.Level], t.poly.Coeffs[lt.Level:])
			rqp.NTT(t.poly)
			t.vec = nil
		}
	}
	lt.enc = nil
}

// BabySteps returns the baby rotation steps the evaluation uses
// (ascending; may include 0).
func (lt *LinearTransform) BabySteps() []int { return append([]int(nil), lt.babySteps...) }

// GiantSteps returns the giant rotation steps (ascending; may include 0).
func (lt *LinearTransform) GiantSteps() []int { return append([]int(nil), lt.giantSteps...) }

// Rotations returns the nonzero rotation steps the evaluation needs keys
// for: the union of baby and giant steps, ascending.
func (lt *LinearTransform) Rotations() []int {
	set := map[int]bool{}
	for _, s := range lt.babySteps {
		set[s] = true
	}
	for _, s := range lt.giantSteps {
		set[s] = true
	}
	delete(set, 0)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// BSGSSteps splits normalized diagonal indices by block size n1 and
// returns the distinct baby steps (d mod n1) and giant steps (d − d mod n1),
// both ascending. Shared between key owners (choosing what to export) and
// the transform builder, so the two derive the same rotation set by
// construction.
func BSGSSteps(slots int, diags []int, n1 int) (babies, giants []int) {
	bset, gset := map[int]bool{}, map[int]bool{}
	for _, d := range diags {
		d = ((d % slots) + slots) % slots
		i := d % n1
		bset[i] = true
		gset[d-i] = true
	}
	for s := range bset {
		babies = append(babies, s)
	}
	for s := range gset {
		giants = append(giants, s)
	}
	sort.Ints(babies)
	sort.Ints(giants)
	return babies, giants
}

// OptimalN1 scans power-of-two block sizes and returns the one minimizing
// |babies| + |giants| for the given diagonal support. Giant steps are the
// more expensive side — each pays a fresh gadget decomposition and a
// ModDown, where a double-hoisted baby pays only its MAC — so ties break
// toward the larger block (fewer giants). The cost model counts rotation
// keys as much as work: the chosen split fixes the rotation set key
// owners export (HomomorphicDFTRotations).
func OptimalN1(slots int, diags []int) int {
	best, bestCost := 1, int(^uint(0)>>1)
	for n1 := 1; n1 <= slots; n1 <<= 1 {
		b, g := BSGSSteps(slots, diags, n1)
		if cost := len(b) + len(g); cost <= bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// RescalesPerLevel is the limb cost of one multiplicative level on this
// parameter set: ⌈LogScale/LimbBits⌉ (2 on the double-scale presets).
func (p *Parameters) RescalesPerLevel() int {
	return (p.LogScale + p.LimbBits - 1) / p.LimbBits
}

// NewLinearTransform prepares a plaintext matrix, given as its nonzero
// diagonals (diag d holds M[r][(r+d) mod slots] at position r; indices are
// normalized cyclically, vectors shorter than Slots() are zero-padded),
// for evaluation on ciphertexts at `level`. n1 ≤ 0 selects the
// cost-optimal power-of-two block size. All-zero diagonals are dropped.
// The transform consumes RescalesPerLevel() limbs, so level must leave at
// least one; at least one nonzero diagonal is required. The diagonals are
// copied (pre-rotated) and encoded on the transform's first evaluation.
func (enc *Encoder) NewLinearTransform(diags map[int][]complex128, level, n1 int) *LinearTransform {
	p := enc.params
	slots := p.Slots()
	rescales := p.RescalesPerLevel()
	// Floor of 2·rescales: the pre-rescale product lives at scale
	// Δ·2^(rescales·LimbBits) ≤ 2^(2·rescales·LimbBits), which must fit
	// under the level's modulus — one multiplicative level of input
	// headroom on top of the rescales themselves.
	if level < 2*rescales || level > p.MaxLevel() {
		panic("ckks: linear-transform level out of range")
	}

	// Normalize, merge aliased indices, and drop zero diagonals.
	norm := map[int][]complex128{}
	for d, v := range diags {
		if len(v) > slots {
			panic("ckks: diagonal longer than slot count")
		}
		nz := false
		for _, z := range v {
			if z != 0 {
				nz = true
				break
			}
		}
		if !nz {
			continue
		}
		d = ((d % slots) + slots) % slots
		if prev, ok := norm[d]; ok {
			merged := make([]complex128, slots)
			copy(merged, prev)
			for i, z := range v {
				merged[i] += z
			}
			norm[d] = merged
			continue
		}
		norm[d] = v
	}
	if len(norm) == 0 {
		panic("ckks: linear transform has no nonzero diagonals")
	}
	idx := make([]int, 0, len(norm))
	for d := range norm {
		idx = append(idx, d)
	}
	sort.Ints(idx)
	if n1 <= 0 {
		n1 = OptimalN1(slots, idx)
	}

	babies, giants := BSGSSteps(slots, idx, n1)
	lt := &LinearTransform{
		Level: level, N1: n1, Rescales: rescales, slots: slots,
		groups: map[int][]ltTerm{}, babySteps: babies, giantSteps: giants,
		enc: enc,
	}
	lt.PtScale = 1.0
	for i := 0; i < rescales*p.LimbBits; i++ {
		lt.PtScale *= 2
	}
	for _, d := range idx {
		i := d % n1
		g := d - i
		// Pre-rotate by −g: stored[r] = diag_d[(r−g) mod slots].
		rot := make([]complex128, slots)
		for r, z := range norm[d] {
			rot[(r+g)%slots] = z
		}
		lt.groups[g] = append(lt.groups[g], ltTerm{baby: i, vec: rot})
	}
	return lt
}

// LinearTransform evaluates lt on ct (coefficient domain, at exactly
// lt.Level) using rotation keys from rot (keyed by normalized step; every
// step in lt.Rotations() must be present). The first evaluation of lt
// encodes its diagonals. The result lands lt.Rescales levels below at ≈
// the input scale. Misuse panics; the public Server role validates and
// returns typed errors.
func (ev *Evaluator) LinearTransform(ct *Ciphertext, lt *LinearTransform, rot map[int]*RotationKey) *Ciphertext {
	if ct.Level != lt.Level {
		panic("ckks: ciphertext level does not match the transform's encoding level")
	}
	lt.once.Do(lt.encode)
	p := ev.params
	level := lt.Level
	rl, rqp := ev.ringAt(level), p.RingQPAt(level)

	// Baby 0 is P·ct over Q·P, and every baby i ≠ 0 is σ_i(P·c0) plus the
	// MAC of the shared hoisted decomposition of c1 — a Q·P ciphertext of
	// P·rot_i(v), never ModDown'd. The decomposition's own-group digit
	// rows copy from c1's NTT form.
	c0n := rl.GetPolyCopy(ct.C0)
	c1n := rl.GetPolyCopy(ct.C1)
	rl.NTT(c0n)
	rl.NTT(c1n)
	pc0, pc1 := rqp.GetPolyUninit(), rqp.GetPolyUninit()
	p.mulP(c0n, pc0)
	p.mulP(c1n, pc1)
	var h *hoistedDigits
	if len(lt.babySteps) > 1 || lt.babySteps[0] != 0 {
		h = p.hoist(ct.C1, c1n, level)
	}
	rl.PutPoly(c0n)
	rl.PutPoly(c1n)

	type pair struct{ b0, b1 *ring.Poly }
	babies := make(map[int]pair, len(lt.babySteps))
	for _, i := range lt.babySteps {
		if i == 0 {
			babies[0] = pair{pc0, pc1}
			continue
		}
		rk := rot[i]
		if rk == nil {
			panic("ckks: missing baby-step rotation key")
		}
		b0 := rqp.GetPolyUninit() // PermuteNTT writes every index
		rqp.PermuteNTT(pc0, rk.Perm, b0)
		b1 := rqp.GetPoly()
		b1.IsNTT = true
		p.macQP(h, rk.K, rk.Perm, b0, b1, true)
		babies[i] = pair{b0, b1}
	}
	if h != nil {
		p.releaseDigits(h)
	}
	if _, used := babies[0]; !used {
		rqp.PutPoly(pc0)
		rqp.PutPoly(pc1)
	}

	// Giant steps: sum each block over Q·P at the product scale, rotate
	// the block once, and fold it into the Q·P result — rotations run
	// before the rescales on purpose (key-switch noise is additive at the
	// current scale, cheapest while the scale is still ct.Scale·PtScale).
	res0, res1 := rqp.GetPoly(), rqp.GetPoly()
	res0.IsNTT, res1.IsNTT = true, true
	for _, g := range lt.giantSteps {
		terms := lt.groups[g]
		if g == 0 {
			for _, t := range terms {
				rqp.MulCoeffsAdd(t.poly, babies[t.baby].b0, res0)
				rqp.MulCoeffsAdd(t.poly, babies[t.baby].b1, res1)
			}
			continue
		}
		rk := rot[g]
		if rk == nil {
			panic("ckks: missing giant-step rotation key")
		}
		acc0, acc1 := rqp.GetPoly(), rqp.GetPoly()
		acc0.IsNTT, acc1.IsNTT = true, true
		for _, t := range terms {
			rqp.MulCoeffsAdd(t.poly, babies[t.baby].b0, acc0)
			rqp.MulCoeffsAdd(t.poly, babies[t.baby].b1, acc1)
		}
		// The decomposition needs acc1 over Q: one single-half ModDown
		// (acc1 = P·a1 + r with |r| ≤ P/2, so σ_g(acc0) + P·σ_g(a1·s)
		// is σ_g(acc0 + acc1·s) up to the rounding term σ_g(r·s), the
		// size of any ModDown's). Its MAC lands in the Q·P result as is;
		// σ_g of the acc0 half is a pure NTT-domain gather.
		a1n := rl.GetPoly()
		a1n.IsNTT = true
		p.modDown([]*ring.Poly{acc1}, []*ring.Poly{a1n}, level, false)
		a1 := rl.GetPolyCopy(a1n)
		rl.INTT(a1)
		p.switchQP(a1, a1n, level, rk.K, rk.Perm, res0, res1, true)
		rl.PutPoly(a1)
		rl.PutPoly(a1n)
		tmp := rqp.GetPolyUninit()
		rqp.PermuteNTT(acc0, rk.Perm, tmp)
		rqp.Add(res0, tmp, res0)
		rqp.PutPoly(tmp)
		rqp.PutPoly(acc0)
	}
	for _, pr := range babies {
		rqp.PutPoly(pr.b0)
		rqp.PutPoly(pr.b1)
	}

	final0, final1 := rl.NewPoly(), rl.NewPoly() // returned — caller-owned
	final0.IsNTT, final1.IsNTT = true, true
	p.modDownPair(res0, res1, level, final0, final1, true)
	out := &Ciphertext{C0: final0, C1: final1, Level: level, Scale: ct.Scale * lt.PtScale}
	for r := 0; r < lt.Rescales; r++ {
		out = ev.Rescale(out)
	}
	return out
}

// mulP sets out = P·c over the Q·P basis for an NTT-domain c over Q_ℓ:
// [P]_{q_i}·c on the Q limbs, and 0 on the P limbs, where P ≡ 0.
func (p *Parameters) mulP(c, out *ring.Poly) {
	level := len(c.Coeffs)
	p.RingQPAt(level).Engine().Run(len(out.Coeffs), func(i int) {
		oi := out.Coeffs[i]
		if i >= level {
			clear(oi)
			return
		}
		m, sc, ci := p.ringQ.Basis.Moduli[i], p.pModQ[i], c.Coeffs[i]
		for j := range oi {
			oi[j] = m.BarrettMul(ci[j], sc)
		}
	})
	out.IsNTT = true
}

// MulByI multiplies every slot by the imaginary unit: a negacyclic
// monomial multiply by X^(N/2), whose decode places i in every slot
// (5^j ≡ 1 mod 4, so every evaluation point raises it to i). Pure
// O(N·L) coefficient movement — no keys, no noise growth, scale and
// level unchanged.
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	rl := ev.ringAt(ct.Level)
	out0, out1 := rl.NewPoly(), rl.NewPoly()
	rl.MulMonomial(ct.C0, ev.params.N()/2, out0)
	rl.MulMonomial(ct.C1, ev.params.N()/2, out1)
	return &Ciphertext{C0: out0, C1: out1, Level: ct.Level, Scale: ct.Scale}
}

// ---------------------------------------------------------------------
// Homomorphic DFT: CoeffsToSlots / SlotsToCoeffs
// ---------------------------------------------------------------------

// HomomorphicDFTConfig selects the shape of a homomorphic DFT.
type HomomorphicDFTConfig struct {
	// StartLevel is the level CoeffsToSlots consumes its input at. The
	// full round trip spends 2·Levels·RescalesPerLevel() limbs, so
	// StartLevel must exceed that.
	StartLevel int
	// Levels is the number of grouped butterfly matrices per direction:
	// more levels → sparser matrices (fewer rotations each) but more
	// depth. Must be in [1, log2(Slots)].
	Levels int
}

// HomomorphicDFT is a built CoeffsToSlots/SlotsToCoeffs pipeline: the
// factored encoding/decoding matrices as linear transforms at their
// scheduled levels. Each transform encodes its diagonals on its first
// evaluation, so a direction that is never applied is never encoded. Safe
// for concurrent evaluation.
type HomomorphicDFT struct {
	StartLevel int
	Levels     int
	MidLevel   int // level the C2S outputs (and S2C inputs) live at

	C2S []*LinearTransform // application order
	S2C []*LinearTransform
}

// NewHomomorphicDFT builds the transform pipeline: the inverse special
// FFT factored into cfg.Levels grouped matrices for CoeffsToSlots (with
// the conjugate split's 1/2 folded into the last group), and the forward
// factorization for SlotsToCoeffs. Each group is scheduled one
// multiplicative level after its predecessor.
func (enc *Encoder) NewHomomorphicDFT(cfg HomomorphicDFTConfig) *HomomorphicDFT {
	p := enc.params
	logn := bits.Len(uint(p.Slots())) - 1
	if cfg.Levels < 1 || cfg.Levels > logn {
		panic("ckks: DFT level count out of range")
	}
	r := p.RescalesPerLevel()
	// The deepest transform runs at StartLevel − (2·Levels−1)·r and, like
	// every LinearTransform, needs 2r levels of room below it.
	if cfg.StartLevel > p.MaxLevel() || cfg.StartLevel < (2*cfg.Levels+1)*r {
		panic("ckks: DFT start level out of range for the transform depth")
	}
	emb := p.Embedder()
	c2sMats := emb.DFTMatrices(cfg.Levels, true)
	c2sMats[len(c2sMats)-1].Scale(0.5) // conjugate split: t′ = t/2
	s2cMats := emb.DFTMatrices(cfg.Levels, false)

	dft := &HomomorphicDFT{
		StartLevel: cfg.StartLevel,
		Levels:     cfg.Levels,
		MidLevel:   cfg.StartLevel - cfg.Levels*r,
	}
	for j, m := range c2sMats {
		dft.C2S = append(dft.C2S, enc.NewLinearTransform(m.Diags, cfg.StartLevel-j*r, 0))
	}
	for j, m := range s2cMats {
		dft.S2C = append(dft.S2C, enc.NewLinearTransform(m.Diags, dft.MidLevel-j*r, 0))
	}
	return dft
}

// Rotations returns the union of rotation steps every transform in the
// pipeline needs, ascending (the conjugation key is needed additionally —
// CoeffsToSlots' real/imaginary split uses it).
func (dft *HomomorphicDFT) Rotations() []int {
	set := map[int]bool{}
	for _, lts := range [][]*LinearTransform{dft.C2S, dft.S2C} {
		for _, lt := range lts {
			for _, s := range lt.Rotations() {
				set[s] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// HomomorphicDFTRotations computes the rotation set a homomorphic DFT
// with the given shape needs — from the stage geometry alone, without
// encoding any matrix (the key-owner side of the contract: owners export
// exactly this set plus the conjugation key, servers build the matching
// transform, and both derive the block sizes from the same analytic
// diagonal support). slots must be a power of two ≥ 2; levels in
// [1, log2(slots)].
func HomomorphicDFTRotations(slots, levels int) []int {
	logn := bits.Len(uint(slots)) - 1
	if slots < 2 || slots != 1<<uint(logn) {
		panic("ckks: slot count must be a power of two")
	}
	set := map[int]bool{}
	for _, inverse := range []bool{true, false} {
		for _, idx := range fftfp.DFTDiagIndices(logn, levels, inverse) {
			n1 := OptimalN1(slots, idx)
			babies, giants := BSGSSteps(slots, idx, n1)
			for _, s := range babies {
				set[s] = true
			}
			for _, s := range giants {
				set[s] = true
			}
		}
	}
	delete(set, 0)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// CoeffsToSlots homomorphically moves the plaintext polynomial's
// coefficients into the message slots: the factored inverse special FFT,
// then the conjugate split. The returned pair (re, im) holds, in
// bit-reversed slot order, the real and imaginary coefficient halves
// c_r and c_{r+Slots} of the input's plaintext polynomial — the form
// EvalMod consumes. ct must be at dft.StartLevel; both outputs land at
// dft.MidLevel. conj is the conjugation key; rot must cover
// dft.Rotations().
func (ev *Evaluator) CoeffsToSlots(ct *Ciphertext, dft *HomomorphicDFT, rot map[int]*RotationKey, conj *RotationKey) (re, im *Ciphertext) {
	acc := ct
	for _, lt := range dft.C2S {
		acc = ev.LinearTransform(acc, lt, rot)
	}
	// acc's slots hold t′ = t/2 (the folded 1/2): Re t = t′ + conj(t′),
	// Im t = i·(conj(t′) − t′).
	cj := ev.RotateGalois(acc, conj)
	re = ev.Add(acc, cj)
	im = ev.MulByI(ev.Sub(cj, acc))
	return re, im
}

// SlotsToCoeffs inverts CoeffsToSlots: recombines the coefficient halves
// (re + i·im, one keyless monomial multiply) and applies the factored
// forward special FFT. Both inputs must be at dft.MidLevel with equal
// scales; the result lands at dft.StartLevel − 2·Levels·rescales.
func (ev *Evaluator) SlotsToCoeffs(re, im *Ciphertext, dft *HomomorphicDFT, rot map[int]*RotationKey) *Ciphertext {
	acc := ev.Add(re, ev.MulByI(im))
	for _, lt := range dft.S2C {
		acc = ev.LinearTransform(acc, lt, rot)
	}
	return acc
}
