package ring

// RNS basis extension on whole polynomials — the spec-shaped form of the
// ModUp that hybrid (P·Q) key switching runs per limb (ckks/keyswitch.go
// schedules rns.Extender's ReduceRange/CombineLimb halves directly).
// ModUpInto raises a group of coefficient-domain limbs to an extended
// basis (Q_ℓ ∪ P), chunking the coefficient range across the lane engine
// (every chunk computes disjoint outputs — bit-identical at any worker
// count). The key-switch reference test and the benchmark probes call it.

import (
	"repro/internal/rns"
)

// ModUpInto extends the coefficient-domain source rows (residues of one
// decomposition group, ext.SrcK() rows) to the extended basis, writing all
// ext.DstK() rows of dst. dst's storage may be uninitialized (every word
// in range is overwritten); rows must be N long. The receiver supplies the
// degree and the engine — its own basis is not consulted, so any level
// view sharing the engine works.
func (r *Ring) ModUpInto(ext *rns.Extender, srcRows [][]uint64, dst *Poly) {
	if len(srcRows) != ext.SrcK() || len(dst.Coeffs) != ext.DstK() {
		panic("ring: ModUpInto basis shape mismatch")
	}
	r.Engine().RunChunks(r.N, func(lo, hi int) {
		ext.ExtendRange(srcRows, dst.Coeffs, lo, hi)
	})
	dst.IsNTT = false
}
