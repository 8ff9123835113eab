package rns

// Fast RNS basis extension — the kernel under hybrid (P·Q) key switching.
//
// Given a value x known by its residues over a small source basis
// G = g_0·g_1·…·g_{α-1} (one decomposition group of the Q chain, or the
// special-prime chain P), ModUp reconstructs x's *centered* representative
// x̄ ∈ (−G/2, G/2] over an arbitrary set of target moduli without ever
// materializing the big integer:
//
//	y_i  = [(x_i + ⌊G/2⌋) · (G/g_i)^{-1}]  mod g_i
//	v    = ⌊Σ_i y_i / g_i⌋                       (float64 estimate)
//	out_t = Σ_i y_i·(G/g_i) − v·G − ⌊G/2⌋       mod m_t
//
// (the ⌊G/2⌋ shift makes the sum land in [0, αG) so v ∈ [0, α); its
// subtraction at the targets restores the centered lift). This is the
// standard Halevi–Polyakov–Shoup fast base conversion; the float64 v can
// round across an integer boundary only when x̄ sits within ~2^{-52}·αG of
// ±G/2, in which case the output is off by exactly ±G — harmless for key
// switching, where any representative x̄ + uG with small |u| only perturbs
// the noise term, never the residues on the source limbs themselves (those
// reconstruct exactly, see TestExtenderExactOnSourceLimbs).
//
// All tables are immutable after NewExtender; ExtendRange is pure
// arithmetic over disjoint output indices, so callers may chunk it across
// lanes freely — any partition computes the same bytes.

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/mod"
)

// extendMaxSource bounds the source-basis size so the per-coefficient
// residue scratch lives on the stack. Hybrid key switching uses source
// groups of at most MaxSpecialLimbs primes (the ckks layer enforces ≤ 8);
// 16 leaves headroom for other callers.
const extendMaxSource = 16

// Extender holds the precomputed tables for one (source basis, target
// moduli) pair. Safe for concurrent use.
type Extender struct {
	src []mod.Modulus
	dst []mod.Modulus

	halfSrc []uint64   // ⌊G/2⌋ mod g_i
	invHat  []uint64   // (G/g_i)^{-1} mod g_i
	gInv    []float64  // 1/g_i
	hatDst  [][]uint64 // hatDst[t][i] = (G/g_i) mod m_t
	corr    [][]uint64 // corr[t][v]  = (v·G + ⌊G/2⌋) mod m_t, v ∈ [0, α]
}

// NewExtender builds the extension tables from the source primes to the
// target moduli (targets may overlap the sources; overlapping targets
// reconstruct their own residues exactly).
func NewExtender(src, dst []uint64) (*Extender, error) {
	if len(src) == 0 || len(dst) == 0 {
		return nil, fmt.Errorf("rns: extender needs non-empty bases (src %d, dst %d)", len(src), len(dst))
	}
	if len(src) > extendMaxSource {
		return nil, fmt.Errorf("rns: extender source basis %d exceeds %d limbs", len(src), extendMaxSource)
	}
	e := &Extender{
		src:     make([]mod.Modulus, len(src)),
		dst:     make([]mod.Modulus, len(dst)),
		halfSrc: make([]uint64, len(src)),
		invHat:  make([]uint64, len(src)),
		gInv:    make([]float64, len(src)),
		hatDst:  make([][]uint64, len(dst)),
		corr:    make([][]uint64, len(dst)),
	}
	g := big.NewInt(1)
	for _, q := range src {
		g.Mul(g, new(big.Int).SetUint64(q))
	}
	half := new(big.Int).Rsh(g, 1)
	tmp := new(big.Int)
	for i, q := range src {
		e.src[i] = mod.NewModulus(q)
		e.gInv[i] = 1 / float64(q)
		e.halfSrc[i] = tmp.Mod(half, new(big.Int).SetUint64(q)).Uint64()
		// (G/g_i)^{-1} mod g_i
		hat := new(big.Int).Quo(g, new(big.Int).SetUint64(q))
		hatMod := tmp.Mod(hat, new(big.Int).SetUint64(q)).Uint64()
		e.invHat[i] = e.src[i].Inv(hatMod)
	}
	for t, m := range dst {
		e.dst[t] = mod.NewModulus(m)
		e.hatDst[t] = make([]uint64, len(src))
		for i, q := range src {
			hat := new(big.Int).Quo(g, new(big.Int).SetUint64(q))
			e.hatDst[t][i] = tmp.Mod(hat, new(big.Int).SetUint64(m)).Uint64()
		}
		e.corr[t] = make([]uint64, len(src)+1)
		vg := new(big.Int).Set(half)
		for v := 0; v <= len(src); v++ {
			e.corr[t][v] = tmp.Mod(vg, new(big.Int).SetUint64(m)).Uint64()
			vg.Add(vg, g)
		}
	}
	return e, nil
}

// MustExtender panics on error.
func MustExtender(src, dst []uint64) *Extender {
	e, err := NewExtender(src, dst)
	if err != nil {
		panic(err)
	}
	return e
}

// SrcK and DstK report the basis sizes.
func (e *Extender) SrcK() int { return len(e.src) }
func (e *Extender) DstK() int { return len(e.dst) }

// ExtendRange extends coefficients [lo, hi): src[i][j] holds x_j mod g_i
// (residues in [0, g_i)), and dst[t][j] receives the centered lift of x_j
// mod m_t. src rows must cover [lo, hi); dst rows are fully overwritten on
// that range (stale contents are fine — pooled uninitialized storage is
// the expected caller). Output indices are disjoint per j, so the range
// may be partitioned across workers arbitrarily without changing a byte.
func (e *Extender) ExtendRange(src, dst [][]uint64, lo, hi int) {
	if len(src) != len(e.src) || len(dst) != len(e.dst) {
		panic("rns: extender row count mismatch")
	}
	var y [extendMaxSource]uint64
	alpha := len(e.src)
	for j := lo; j < hi; j++ {
		vf := 0.0
		for i := 0; i < alpha; i++ {
			m := e.src[i]
			yi := m.BarrettMul(m.Add(src[i][j], e.halfSrc[i]), e.invHat[i])
			y[i] = yi
			vf += float64(yi) * e.gInv[i]
		}
		v := int(vf) // ⌊·⌋: vf ≥ 0
		if v > alpha {
			v = alpha
		}
		for t := range dst {
			m := e.dst[t]
			hat := e.hatDst[t]
			acc := uint64(0)
			for i := 0; i < alpha; i++ {
				acc = m.Add(acc, m.BarrettMul(y[i]%m.Q, hat[i]))
			}
			dst[t][j] = m.Sub(acc, e.corr[t][v])
		}
	}
}

// ReduceRange is the source half of ExtendRange, split out so fused
// key-switch pipelines can compute the y_i rows and the overflow estimate
// v once and then combine target limbs in parallel (each target task
// reading y/v instead of redoing the source reduction per limb). For
// coefficients [lo, hi): y[i][j] = [(src[i][j] + ⌊G/2⌋)·(G/g_i)^{-1}] mod
// g_i, and v[j] the clamped ⌊Σ y_i/g_i⌋ estimate. The float accumulation
// runs in the same i-ascending order as ExtendRange, so a ReduceRange +
// CombineLimb pair reproduces ExtendRange's bytes exactly.
func (e *Extender) ReduceRange(src, y [][]uint64, v []uint64, lo, hi int) {
	if len(src) != len(e.src) || len(y) != len(e.src) {
		panic("rns: extender row count mismatch")
	}
	alpha := len(e.src)
	for j := lo; j < hi; j++ {
		vf := 0.0
		for i := 0; i < alpha; i++ {
			m := e.src[i]
			yi := m.BarrettMul(m.Add(src[i][j], e.halfSrc[i]), e.invHat[i])
			y[i][j] = yi
			vf += float64(yi) * e.gInv[i]
		}
		vj := int(vf) // ⌊·⌋: vf ≥ 0
		if vj > alpha {
			vj = alpha
		}
		v[j] = uint64(vj)
	}
}

var _ = [1]struct{}{}[mod.LazyTerms-4] // the lazy block below is written out for four terms

// CombineLimb is the target half: dst[j] = Σ_i y_i·(G/g_i) − v·G − ⌊G/2⌋
// mod m_t over [lo, hi), from rows produced by ReduceRange. Pure
// per-coefficient arithmetic over one output row — safe to run one task
// per target limb, any coefficient partition.
//
// This is the hottest loop of the key-switch schedule, so it multiplies,
// accumulates, and reduces once: mod.LazyTerms source rows at a time, the
// products y_i·hat_i < g_i·m_t summed in a 128-bit (hi, lo) pair and
// Barrett-reduced once per block — one reduction up to α = 4 — with the
// corr[v] subtraction in the last block's pass. The block is written out
// term by term because only then do its row pointers stay in registers; a
// slot past the end is skipped by a loop-invariant branch. The sum is ≡
// ExtendRange's, so the canonical bytes are the same
// (TestReduceCombineMatchesExtend, TestCombineLimbLazyBlocks).
func (e *Extender) CombineLimb(t int, y [][]uint64, v []uint64, dst []uint64, lo, hi int) {
	if len(y) != len(e.src) {
		panic("rns: extender row count mismatch")
	}
	m, hat, corr := e.dst[t], e.hatDst[t], e.corr[t]
	q, bhi, blo := m.Q, m.BHi, m.BLo
	d := dst[lo:hi]
	vv := v[lo:hi:hi]
	for i := 0; i < len(y); i += mod.LazyTerms {
		n := len(y) - i // terms left; this block takes the first LazyTerms
		slot := func(k int) ([]uint64, uint64) {
			if k >= n {
				k = 0 // never read: aliases the block's first row
			}
			return y[i+k][lo:hi:hi], hat[i+k]
		}
		y0, h0 := slot(0)
		y1, h1 := slot(1)
		y2, h2 := slot(2)
		y3, h3 := slot(3)
		for j := range d {
			ahi, alo := bits.Mul64(y0[j], h0)
			if n > 1 {
				ahi, alo = mod.MulAdd128(ahi, alo, y1[j], h1)
			}
			if n > 2 {
				ahi, alo = mod.MulAdd128(ahi, alo, y2[j], h2)
			}
			if n > 3 {
				ahi, alo = mod.MulAdd128(ahi, alo, y3[j], h3)
			}
			s := mod.Reduce128(ahi, alo, q, bhi, blo)
			if i > 0 {
				s = m.Add(s, d[j])
			}
			if n <= mod.LazyTerms { // last block: − corr[v], as a conditional move (m.Sub branches on random data)
				c := corr[vv[j]]
				if s < c {
					s += q
				}
				s -= c
			}
			d[j] = s
		}
	}
}
