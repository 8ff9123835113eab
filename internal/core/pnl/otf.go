// Package pnl models ABC-FHE's pipelined NTT lane (PNL, paper §IV-A) and
// its unified on-the-fly twiddle generator (§IV-B): the lane geometry the
// cycle simulator (internal/sim) and the area model (internal/hw) price,
// and functional mirrors that must agree bit for bit with the limb NTT
// kernels of internal/ntt.
package pnl

import "repro/internal/ntt"

// OTFGen is the functional model of ABC-FHE's unified on-the-fly twiddle
// factor generator (paper §IV-B). Instead of storing all N twiddles per
// modulus (8.25 MB across the 24-limb chain at N = 2^16), the generator
// keeps a compact seed set — the tower ψ^{2^j} and its inverses — and
// reconstructs each stage's twiddle sequence with a few modular
// multiplications per value.
//
// The identity it exploits: the forward CT stage with m = 2^s groups needs
// ψ^{brev(m+i, logN)} for i = 0..m-1, and
//
//	brev(2^s + i, logN) = 2^(logN-1-s) + Σ_{b: bit b of i set} 2^(logN-1-b)
//
// so every twiddle is a product of the stage base ψ^(2^(logN-1-s)) and a
// subset of the seed tower — at most one multiplication per emitted twiddle
// when indices are walked in Gray-code order (the hardware's schedule), or
// popcount(i) multiplications in natural order (this model counts both).
type OTFGen struct {
	t *ntt.Table

	// seed towers in Montgomery form: seeds[j] = ψ^{2^j}, seedsInv[j] = ψ^{-2^j}.
	seeds    []uint64
	seedsInv []uint64

	// MulCount accumulates modular multiplications spent generating
	// twiddles (the datapath cost the paper trades against the 8.25 MB of
	// DRAM traffic).
	MulCount int
}

// NewOTFGen derives the seed towers from the table's root of unity.
func NewOTFGen(t *ntt.Table) *OTFGen {
	g := &OTFGen{t: t}
	m := t.Mod
	g.seeds = make([]uint64, t.LogN+1)
	g.seedsInv = make([]uint64, t.LogN+1)
	p, pi := t.Psi, t.PsiInv
	for j := 0; j <= t.LogN; j++ {
		g.seeds[j] = m.MForm(p)
		g.seedsInv[j] = m.MForm(pi)
		p = m.Mul(p, p)
		pi = m.Mul(pi, pi)
	}
	return g
}

// SeedBytes reports the on-chip storage the generator needs for this
// modulus: both towers at the datapath word width, plus the stage-base
// bookkeeping — this is what fills the paper's 26.4 KB "Twiddle Factor
// Seed Memory" (cf. internal/sim/memory.go for the chip-level total).
func (g *OTFGen) SeedBytes(wordBytes int) int {
	return (len(g.seeds) + len(g.seedsInv)) * wordBytes
}

// StageForward returns the twiddle sequence of forward-CT stage s
// (m = 2^s values, natural index order), generated from seeds only.
// Each value is produced by multiplying the stage base with the seeds
// selected by the bits of i; MulCount is charged accordingly.
func (g *OTFGen) StageForward(s int) []uint64 {
	t := g.t
	m := t.Mod
	mm := 1 << uint(s)
	out := make([]uint64, mm)
	base := g.seeds[t.LogN-1-s] // ψ^{2^(logN-1-s)} in M-form
	for i := 0; i < mm; i++ {
		// M-form accumulator trick: start from MForm(1)·base ... we keep
		// everything in M-form, so multiply via MRedMul which removes one
		// R factor per product.
		tw := base
		for b := 0; b < s; b++ {
			if i&(1<<uint(b)) != 0 {
				tw = m.MRedMul(tw, g.seeds[t.LogN-1-b])
				// MRedMul(x·R, y·R) = x·y·R — stays in M-form.
				g.MulCount++
			}
		}
		out[i] = tw
	}
	return out
}

// StageInverse returns the twiddle sequence of inverse-GS stage with h
// groups (h = 2^s values): ψ^{-brev(h+i, logN)} in M-form.
func (g *OTFGen) StageInverse(s int) []uint64 {
	t := g.t
	m := t.Mod
	h := 1 << uint(s)
	out := make([]uint64, h)
	base := g.seedsInv[t.LogN-1-s]
	for i := 0; i < h; i++ {
		tw := base
		for b := 0; b < s; b++ {
			if i&(1<<uint(b)) != 0 {
				tw = m.MRedMul(tw, g.seedsInv[t.LogN-1-b])
				g.MulCount++
			}
		}
		out[i] = tw
	}
	return out
}

// GrayMulsPerStage returns the number of generator multiplications stage s
// costs when indices are walked in Gray-code order (1 per transition), the
// schedule the hardware pipeline uses: 2^s - 1 transitions + the base.
func GrayMulsPerStage(s int) int {
	if s == 0 {
		return 0
	}
	return (1 << uint(s)) - 1
}
