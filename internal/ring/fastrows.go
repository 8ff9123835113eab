package ring

// Backend-bound row kernels: the per-limb inner loops every pointwise
// ring operation and the key-switch multiply-accumulate compile down to.
// Each kernel exists in two bindings selected by the ring's
// lanes.Backend —
//
//   - portable: the spec-shaped reference (generic 128-bit reduction via
//     mod.Modulus.Mul, one method call per element), and
//   - fast: fixed-width Barrett inner loops (hoisted reduction constants,
//     the 2^128/q constant the 44-bit wire packing guarantees fits) with
//     hoisted slice headers and bounds-check-elimination reslices.
//
// Both bindings produce canonical [0, q) residues — Barrett and the
// 128-bit division reduce to the same representative — so results are
// byte-identical across backends; only the cycle count differs. The
// key-switch MAC (MulPairRows) takes every group's digit row of a limb
// and both key halves in one pass, which is what the key-switch schedule
// in internal/ckks binds its QP MAC stage to.

import (
	"math/bits"

	"repro/internal/mod"
)

// barrett is mod.Modulus.BarrettMul with the constants hoisted into
// locals, so a row loop passes three registers instead of a Modulus:
// (a·b) mod q for a, b < q, via the precomputed ⌊2^128/q⌋ = bhi·2^64 + blo.
func barrett(a, b, q, bhi, blo uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return mod.Reduce128(hi, lo, q, bhi, blo)
}

// mulRowFast sets oi = ai ⊙ bi with Barrett reduction.
func mulRowFast(m mod.Modulus, ai, bi, oi []uint64) {
	q, bhi, blo := m.Q, m.BHi, m.BLo
	ai = ai[:len(oi)]
	bi = bi[:len(oi)]
	for j := range oi {
		oi[j] = barrett(ai[j], bi[j], q, bhi, blo)
	}
}

// mulScalarRowFast sets oi = ai · sc for a residue scalar sc < q.
func mulScalarRowFast(m mod.Modulus, sc uint64, ai, oi []uint64) {
	q, bhi, blo := m.Q, m.BHi, m.BLo
	ai = ai[:len(oi)]
	for j := range oi {
		oi[j] = barrett(ai[j], sc, q, bhi, blo)
	}
}

// mulPermAddRowFast is the single-half permuted MAC row:
// oi[j] += ai[perm[j]]·bi[j] (perm nil ⇒ identity), Barrett-reduced.
func mulPermAddRowFast(m mod.Modulus, ai []uint64, perm []int32, bi, oi []uint64) {
	q, bhi, blo := m.Q, m.BHi, m.BLo
	bi = bi[:len(oi)]
	if perm == nil {
		ai = ai[:len(oi)]
		for j := range oi {
			v := oi[j] + barrett(ai[j], bi[j], q, bhi, blo)
			if v >= q {
				v -= q
			}
			oi[j] = v
		}
		return
	}
	perm = perm[:len(oi)]
	for j := range oi {
		v := oi[j] + barrett(ai[perm[j]], bi[j], q, bhi, blo)
		if v >= q {
			v -= q
		}
		oi[j] = v
	}
}

var _ = [1]struct{}{}[mod.LazyTerms-4] // the lazy block below is written out for four terms

// MulPairRows is the key-switch MAC of one limb over every decomposition
// group at once, on the coefficients [off, off+len(a0)):
//
//	a0[j] = Σ_g d[g][perm[off+j]]·k0[g][j]
//	a1[j] = Σ_g d[g][perm[off+j]]·k1[g][j]
//
// (perm nil ⇒ identity; g ranges over len(d), k0/k1 may hold more rows).
// d[g] is group g's whole digit row for this limb of the ring's own basis;
// k0[g], k1[g] are the matching key rows of the same coefficient range as
// a0/a1 — rows of a word polynomial, or a tile a narrow key row was
// decoded into. With add the sums accumulate onto a0/a1 instead
// (a0[j] += …); otherwise a0/a1 are written, never read.
//
// The portable binding is the spec: add each reduced product in group
// order. The fast binding sums mod.LazyTerms groups' products per half in
// a 128-bit (hi, lo) pair and Barrett-reduces once per block, later blocks
// adding onto the first's output; as in rns.Extender.CombineLimb the block
// is written out so its row pointers stay in registers. Each output is the
// canonical residue of the same sum either way — the bytes cannot differ.
func (r *Ring) MulPairRows(limb int, perm []int32, d, k0, k1 [][]uint64, off int, a0, a1 []uint64, add bool) {
	m := r.Basis.Moduli[limb]
	if perm != nil {
		perm = perm[off : off+len(a0)]
	}
	if !r.Backend().Specialized() {
		for j := range a0 {
			pj := off + j
			if perm != nil {
				pj = int(perm[j])
			}
			s0, s1 := uint64(0), uint64(0)
			if add {
				s0, s1 = a0[j], a1[j]
			}
			for g, dg := range d {
				s0 = m.Add(s0, m.Mul(dg[pj], k0[g][j]))
				s1 = m.Add(s1, m.Mul(dg[pj], k1[g][j]))
			}
			a0[j], a1[j] = s0, s1
		}
		return
	}
	q, bhi, blo := m.Q, m.BHi, m.BLo
	a1 = a1[:len(a0)]
	for g := 0; g < len(d); g += mod.LazyTerms {
		n := len(d) - g // groups left; this block takes the first LazyTerms
		slot := func(i int) (dg, k0g, k1g []uint64) {
			if i >= n {
				i = 0 // never read: aliases the block's first rows
			}
			dg = d[g+i]
			if perm == nil {
				dg = dg[off : off+len(a0)]
			}
			return dg, k0[g+i][:len(a0)], k1[g+i][:len(a0)]
		}
		d0, p0, q0 := slot(0)
		d1, p1, q1 := slot(1)
		d2, p2, q2 := slot(2)
		d3, p3, q3 := slot(3)
		for j := range a0 {
			pj := j
			if perm != nil {
				pj = int(perm[j])
			}
			x := d0[pj]
			h0, l0 := bits.Mul64(x, p0[j])
			h1, l1 := bits.Mul64(x, q0[j])
			if n > 1 {
				x = d1[pj]
				h0, l0 = mod.MulAdd128(h0, l0, x, p1[j])
				h1, l1 = mod.MulAdd128(h1, l1, x, q1[j])
			}
			if n > 2 {
				x = d2[pj]
				h0, l0 = mod.MulAdd128(h0, l0, x, p2[j])
				h1, l1 = mod.MulAdd128(h1, l1, x, q2[j])
			}
			if n > 3 {
				x = d3[pj]
				h0, l0 = mod.MulAdd128(h0, l0, x, p3[j])
				h1, l1 = mod.MulAdd128(h1, l1, x, q3[j])
			}
			s0 := mod.Reduce128(h0, l0, q, bhi, blo)
			s1 := mod.Reduce128(h1, l1, q, bhi, blo)
			if g > 0 || add {
				s0, s1 = m.Add(s0, a0[j]), m.Add(s1, a1[j])
			}
			a0[j], a1[j] = s0, s1
		}
	}
}

// SubMulAddRow is the ModDown rounding-division kernel, one limb:
//
//	oi[j] += (si[j] − ei[j]) · inv   (mod the limb prime)
//
// dispatching on the ring's backend. Both bindings use the same Barrett
// product (the portable path always has — this kernel never used the
// generic division), so the dispatch only buys the hoisted-constant,
// bounds-check-free loop on the fast path.
func (r *Ring) SubMulAddRow(limb int, inv uint64, si, ei, oi []uint64) {
	m := r.Basis.Moduli[limb]
	if !r.Backend().Specialized() {
		for j := range oi {
			oi[j] = m.Add(oi[j], m.BarrettMul(m.Sub(si[j], ei[j]), inv))
		}
		return
	}
	q, bhi, blo := m.Q, m.BHi, m.BLo
	si = si[:len(oi)]
	ei = ei[:len(oi)]
	for j := range oi {
		d := si[j] - ei[j]
		if si[j] < ei[j] {
			d += q
		}
		v := oi[j] + barrett(d, inv, q, bhi, blo)
		if v >= q {
			v -= q
		}
		oi[j] = v
	}
}

// MulScalarAddRow is the multiply-accumulate by a limb scalar, one limb:
//
//	oi[j] += si[j] · sc   (mod the limb prime, sc < q)
//
// ModDown's coefficient-domain close runs on it twice per limb (the
// accumulator plus s·P⁻¹ before the inverse NTT, then minus ext·P⁻¹
// after it). It has one binding: a Barrett loop like SubMulAddRow's,
// canonical output either way, so a portable twin would pin nothing
// TestMulScalarAddRowMatchesSpec does not.
func (r *Ring) MulScalarAddRow(limb int, sc uint64, si, oi []uint64) {
	m := r.Basis.Moduli[limb]
	q, bhi, blo := m.Q, m.BHi, m.BLo
	si = si[:len(oi)]
	for j := range oi {
		v := oi[j] + barrett(si[j], sc, q, bhi, blo)
		if v >= q {
			v -= q
		}
		oi[j] = v
	}
}

// ForwardLimb runs the limb-i forward NTT on a raw coefficient row
// through the backend-bound kernel (lazy butterflies on the fast path).
func (r *Ring) ForwardLimb(i int, row []uint64) {
	if r.Backend().Specialized() {
		r.Tables[i].ForwardLazy(row)
		return
	}
	r.Tables[i].Forward(row)
}

// InverseLimb is ForwardLimb's inverse-transform sibling.
func (r *Ring) InverseLimb(i int, row []uint64) {
	if r.Backend().Specialized() {
		r.Tables[i].InverseLazy(row)
		return
	}
	r.Tables[i].Inverse(row)
}
