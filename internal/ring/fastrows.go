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
// key-switch pair kernels (MulAddPairRow / MulPairRow) fuse both
// ciphertext halves into one pass over the digit row, which is what the
// key-switch schedule in internal/ckks binds its QP MAC stage to.

import (
	"math/bits"

	"repro/internal/mod"
)

// barrett is mod.Modulus.BarrettMul with the constants hoisted into
// locals so the inliner folds it into the row loops: (a·b) mod q for
// a, b < q, via the precomputed ⌊2^128/q⌋ = bhi·2^64 + blo.
func barrett(a, b, q, bhi, blo uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	mhi, _ := bits.Mul64(lo, blo)
	c1hi, c1lo := bits.Mul64(lo, bhi)
	c2hi, c2lo := bits.Mul64(hi, blo)
	mid, carry1 := bits.Add64(c1lo, c2lo, 0)
	_, carry2 := bits.Add64(mid, mhi, 0)
	qhat := hi*bhi + c1hi + c2hi + carry1 + carry2
	r := lo - qhat*q
	if r >= q {
		r -= q
	}
	if r >= q {
		r -= q
	}
	return r
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

// MulAddPairRow accumulates one digit row into both ciphertext halves:
//
//	a0[j] += d[perm[j]]·k0[j],  a1[j] += d[perm[j]]·k1[j]
//
// (perm nil ⇒ identity), dispatching on the ring's backend. This is the
// key-switch MAC kernel — element order and accumulation order are what
// the staged test reference in internal/ckks pins, per backend. The limb
// index addresses the ring's own basis.
func (r *Ring) MulAddPairRow(limb int, perm []int32, d, k0, k1, a0, a1 []uint64) {
	m := r.Basis.Moduli[limb]
	if r.Backend().Specialized() {
		mulAddPairRowFast(m, perm, d, k0, k1, a0, a1)
		return
	}
	if perm == nil {
		for j := range a0 {
			a0[j] = m.Add(a0[j], m.Mul(d[j], k0[j]))
			a1[j] = m.Add(a1[j], m.Mul(d[j], k1[j]))
		}
		return
	}
	for j := range a0 {
		dp := d[perm[j]]
		a0[j] = m.Add(a0[j], m.Mul(dp, k0[j]))
		a1[j] = m.Add(a1[j], m.Mul(dp, k1[j]))
	}
}

func mulAddPairRowFast(m mod.Modulus, perm []int32, d, k0, k1, a0, a1 []uint64) {
	q, bhi, blo := m.Q, m.BHi, m.BLo
	k0 = k0[:len(a0)]
	k1 = k1[:len(a0)]
	a1 = a1[:len(a0)]
	if perm == nil {
		d = d[:len(a0)]
		for j := range a0 {
			dj := d[j]
			v0 := a0[j] + barrett(dj, k0[j], q, bhi, blo)
			if v0 >= q {
				v0 -= q
			}
			v1 := a1[j] + barrett(dj, k1[j], q, bhi, blo)
			if v1 >= q {
				v1 -= q
			}
			a0[j] = v0
			a1[j] = v1
		}
		return
	}
	perm = perm[:len(a0)]
	for j := range a0 {
		dj := d[perm[j]]
		v0 := a0[j] + barrett(dj, k0[j], q, bhi, blo)
		if v0 >= q {
			v0 -= q
		}
		v1 := a1[j] + barrett(dj, k1[j], q, bhi, blo)
		if v1 >= q {
			v1 -= q
		}
		a0[j] = v0
		a1[j] = v1
	}
}

// MulPairRow is the set variant of MulAddPairRow — a0/a1 are overwritten
// rather than accumulated, letting the first group of a key-switch MAC
// land on uninitialized pooled storage without a memclr pass. Writing
// d·k equals adding it to zero, so the bytes match a zeroed accumulator.
func (r *Ring) MulPairRow(limb int, perm []int32, d, k0, k1, a0, a1 []uint64) {
	m := r.Basis.Moduli[limb]
	fast := r.Backend().Specialized()
	q, bhi, blo := m.Q, m.BHi, m.BLo
	k0 = k0[:len(a0)]
	k1 = k1[:len(a0)]
	a1 = a1[:len(a0)]
	if perm == nil {
		d = d[:len(a0)]
		if fast {
			for j := range a0 {
				dj := d[j]
				a0[j] = barrett(dj, k0[j], q, bhi, blo)
				a1[j] = barrett(dj, k1[j], q, bhi, blo)
			}
			return
		}
		for j := range a0 {
			a0[j] = m.Mul(d[j], k0[j])
			a1[j] = m.Mul(d[j], k1[j])
		}
		return
	}
	perm = perm[:len(a0)]
	if fast {
		for j := range a0 {
			dj := d[perm[j]]
			a0[j] = barrett(dj, k0[j], q, bhi, blo)
			a1[j] = barrett(dj, k1[j], q, bhi, blo)
		}
		return
	}
	for j := range a0 {
		dp := d[perm[j]]
		a0[j] = m.Mul(dp, k0[j])
		a1[j] = m.Mul(dp, k1[j])
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
