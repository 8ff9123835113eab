package ckks

import (
	"math"
	"math/bits"

	"repro/internal/mod"
	"repro/internal/ring"
)

// Server-side evaluation primitives — not the paper's focus (ABC-FHE is a
// client accelerator), but the consumer of every ciphertext it produces:
// addition, plaintext multiplication, rescaling and level dropping live
// here; the key-gated operations (relinearized ct×ct multiplication,
// Galois rotations — keyswitch.go) complete the server half of the
// protocol, reachable publicly through the Server role's evaluation-key
// surface.

// Evaluator performs public (keyless) homomorphic operations.
//
// Every primitive draws its result's storage from the lanes pools (the
// result is the caller's: keeping it or dropping it to the GC are both
// fine). The composites — EvalPoly, LinearTransform, CoeffsToSlots,
// SlotsToCoeffs — hand each intermediate they create back through
// release as soon as it is dead, so a bootstrap-shaped chain allocates
// little beyond what it returns.
type Evaluator struct {
	params *Parameters
}

// NewEvaluator builds an evaluator over params.
func NewEvaluator(params *Parameters) *Evaluator {
	return &Evaluator{params: params}
}

func (ev *Evaluator) ringAt(level int) *ring.Ring { return ev.params.RingAt(level) }

// release returns the pooled storage of ciphertexts a composite created
// and no longer reads. Never pass a caller's input or anything handed back
// to a caller. DropLevel views and non-pooled ciphertexts carry no pooled
// storage of their own, so releasing one is a no-op.
func (ev *Evaluator) release(cts ...*Ciphertext) {
	for _, ct := range cts {
		ev.params.ringQ.PutPoly(ct.C0)
		ev.params.ringQ.PutPoly(ct.C1)
	}
}

func sameLevelScale(a, b *Ciphertext) {
	if a.Level != b.Level {
		panic("ckks: ciphertext level mismatch")
	}
	// Relative to the larger scale so the check is order-symmetric.
	if math.Abs(a.Scale-b.Scale) > math.Max(a.Scale, b.Scale)*1e-12 {
		panic("ckks: ciphertext scale mismatch")
	}
}

// Add returns a + b (component-wise RLWE addition).
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	sameLevelScale(a, b)
	rl := ev.ringAt(a.Level)
	out := &Ciphertext{
		C0: rl.GetPolyUninit(), C1: rl.GetPolyUninit(), // Add writes every index
		Level: a.Level, Scale: a.Scale,
	}
	rl.Add(a.C0, b.C0, out.C0)
	rl.Add(a.C1, b.C1, out.C1)
	return out
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	sameLevelScale(a, b)
	rl := ev.ringAt(a.Level)
	out := &Ciphertext{
		C0: rl.GetPolyUninit(), C1: rl.GetPolyUninit(), // Sub writes every index
		Level: a.Level, Scale: a.Scale,
	}
	rl.Sub(a.C0, b.C0, out.C0)
	rl.Sub(a.C1, b.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (plaintext addition; scales must match).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckks: level mismatch")
	}
	if math.Abs(ct.Scale-pt.Scale) > math.Max(ct.Scale, pt.Scale)*1e-12 {
		panic("ckks: scale mismatch")
	}
	rl := ev.ringAt(ct.Level)
	out := ev.params.CopyCiphertext(ct)
	rl.Add(out.C0, pt.Value, out.C0)
	return out
}

// MulPlain returns ct ⊙ pt: both ciphertext halves multiplied by the
// plaintext polynomial. The result's scale is the product of scales;
// Rescale brings it back down. pt is transformed once internally.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckks: level mismatch")
	}
	rl := ev.ringAt(ct.Level)
	ptN := rl.GetPolyCopy(pt.Value)
	rl.NTT(ptN)

	c0 := rl.CopyPoly(ct.C0)
	c1 := rl.CopyPoly(ct.C1)
	rl.NTT(c0)
	rl.NTT(c1)
	rl.MulCoeffs(c0, ptN, c0)
	rl.MulCoeffs(c1, ptN, c1)
	rl.INTT(c0)
	rl.INTT(c1)
	rl.PutPoly(ptN)
	return &Ciphertext{C0: c0, C1: c1, Level: ct.Level, Scale: ct.Scale * pt.Scale}
}

// rescalePoly divides p (coefficient domain, `level` limbs) by the last
// prime q_l exactly in RNS: p'_i = (p_i - p_l)·q_l^{-1} mod q_i, dropping
// the last limb. Both reductions are Barrett row forms (p_l < 2^64 ≤
// q_i·2^64 is in Reduce128's domain), no division per coefficient.
func (ev *Evaluator) rescalePoly(p *ring.Poly, level int) *ring.Poly {
	r := ev.params.Ring()
	last := level - 1
	ql := r.Basis.Moduli[last].Q
	out := ev.ringAt(last).GetPolyUninit() // every index written below
	r.Engine().Run(last, func(i int) {
		m := r.Basis.Moduli[i]
		q, bhi, blo := m.Q, m.BHi, m.BLo
		qlInv := m.Inv(ql % q)
		oi := out.Coeffs[i]
		pi, pl := p.Coeffs[i][:len(oi)], p.Coeffs[last][:len(oi)]
		for j := range oi {
			hi, lo := bits.Mul64(m.Sub(pi[j], mod.Reduce128(0, pl[j], q, bhi, blo)), qlInv)
			oi[j] = mod.Reduce128(hi, lo, q, bhi, blo)
		}
	})
	return out
}

// Rescale divides the ciphertext by its last RNS prime, dropping one limb
// and dividing the scale accordingly — the level-consumption step after a
// multiplication.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.Level < 2 {
		panic("ckks: cannot rescale below level 1")
	}
	r := ev.params.Ring()
	ql := r.Basis.Moduli[ct.Level-1].Q
	return &Ciphertext{
		C0:    ev.rescalePoly(ct.C0, ct.Level),
		C1:    ev.rescalePoly(ct.C1, ct.Level),
		Level: ct.Level - 1,
		Scale: ct.Scale / float64(ql),
	}
}

// DropLevel truncates the ciphertext to `level` limbs without changing the
// scale (valid while |m·Δ| + noise stays below the remaining modulus).
// This is how the paper's evaluation models server→client traffic: the
// server returns 2-limb ciphertexts to minimize client work (§V-B).
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) *Ciphertext {
	if level < 1 || level > ct.Level {
		panic("ckks: invalid target level")
	}
	return &Ciphertext{
		C0:    &ring.Poly{Coeffs: ct.C0.Coeffs[:level], IsNTT: ct.C0.IsNTT},
		C1:    &ring.Poly{Coeffs: ct.C1.Coeffs[:level], IsNTT: ct.C1.IsNTT},
		Level: level,
		Scale: ct.Scale,
	}
}

// Negate returns -ct.
func (ev *Evaluator) Negate(ct *Ciphertext) *Ciphertext {
	rl := ev.ringAt(ct.Level)
	out := ev.params.CopyCiphertext(ct)
	rl.Neg(out.C0, out.C0)
	rl.Neg(out.C1, out.C1)
	return out
}

// MulConst multiplies by a real constant via an integer approximation
// round(c·2^k) with compensating scale bookkeeping (k chosen so the
// constant is represented to ~30 bits).
func (ev *Evaluator) MulConst(ct *Ciphertext, c float64) *Ciphertext {
	if c == 0 {
		rl := ev.ringAt(ct.Level)
		return &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: ct.Level, Scale: ct.Scale}
	}
	neg := c < 0
	if neg {
		c = -c
	}
	k := 30
	ci := uint64(math.Round(c * float64(uint64(1)<<uint(k))))
	rl := ev.ringAt(ct.Level)
	out := ev.params.CopyCiphertext(ct)
	rl.MulScalar(out.C0, ci, out.C0)
	rl.MulScalar(out.C1, ci, out.C1)
	if neg {
		rl.Neg(out.C0, out.C0)
		rl.Neg(out.C1, out.C1)
	}
	out.Scale = ct.Scale * float64(uint64(1)<<uint(k))
	return out
}
