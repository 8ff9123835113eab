package ring

import (
	"fmt"
	"testing"

	"repro/internal/lanes"
	"repro/internal/primes"
)

// macRef is the key-switch MAC as the spec writes it: one reduced product
// added per group, per half. It shares no code with MulPairRows.
func macRef(r *Ring, limb int, perm []int32, d [][]uint64, k0, k1 []*Poly, km int, a0, a1 []uint64) {
	m := r.Basis.Moduli[limb]
	for j := range a0 {
		pj := j
		if perm != nil {
			pj = int(perm[j])
		}
		a0[j], a1[j] = 0, 0
		for g := range d {
			a0[j] = m.Add(a0[j], m.Mul(d[g][pj], k0[g].Coeffs[km][j]))
			a1[j] = m.Add(a1[j], m.Mul(d[g][pj], k1[g].Coeffs[km][j]))
		}
	}
}

// macOperands draws β digit rows and a β-row, two-limb key for limb 0 of
// r (the kernel reads key row km = 1), pinning coefficient 0 of every
// operand at q − 1: the largest sum the 128-bit accumulator can see.
func macOperands(r *Ring, beta int, stream uint64) (d [][]uint64, k0, k1 []*Poly) {
	q := r.Basis.Moduli[0].Q
	row := func() []uint64 {
		stream++
		out := make([]uint64, r.N)
		src(stream).UniformPoly(out, q)
		out[0] = q - 1
		return out
	}
	for g := 0; g < beta; g++ {
		d = append(d, row())
		k0 = append(k0, &Poly{Coeffs: [][]uint64{nil, row()}})
		k1 = append(k1, &Poly{Coeffs: [][]uint64{nil, row()}})
	}
	return d, k0, k1
}

// TestMulPairRowsMatchesSpec: the one MAC kernel equals the term-by-term
// reference on both backends — at 36-bit limbs and at 61-bit limbs, for β
// below, at and past the lazy block (β = 9, 12 flush two and three times),
// with and without a Galois gather, on dirty output rows — and, with add,
// accumulating onto rows whose coefficient 0 is already q − 1.
func TestMulPairRowsMatchesSpec(t *testing.T) {
	const logN = 8
	t.Logf("operand seed (123, 456), streams from 1000·bits + 10·β")
	for _, bits := range []int{36, 61} {
		r := MustRing(1<<logN, primes.GenerateNTTPrimes(1, bits, logN))
		m := r.Basis.Moduli[0]
		for _, perm := range [][]int32{nil, r.GaloisPermNTT(5)} {
			for _, beta := range []int{1, 2, 6, 9, 12} {
				d, k0, k1 := macOperands(r, beta, uint64(1000*bits+10*beta))
				want0, want1 := make([]uint64, r.N), make([]uint64, r.N)
				macRef(r, 0, perm, d, k0, k1, 1, want0, want1)
				base := d[0] // any residues: the accumulation base of the add rows
				for _, b := range []lanes.Backend{lanes.Portable, lanes.Fast} {
					r.SetBackend(b)
					for _, add := range []bool{false, true} {
						got0, got1 := make([]uint64, r.N), make([]uint64, r.N)
						for j := range got0 {
							got0[j], got1[j] = ^uint64(0), ^uint64(0) // pooled rows arrive dirty
							if add {
								got0[j], got1[j] = base[j], base[j]
							}
						}
						r.MulPairRows(0, perm, d, k0, k1, 1, got0, got1, add)
						for j := range want0 {
							w0, w1 := want0[j], want1[j]
							if add {
								w0, w1 = m.Add(w0, base[j]), m.Add(w1, base[j])
							}
							if got0[j] != w0 || got1[j] != w1 {
								t.Fatalf("%d-bit β=%d perm=%v add=%v %s: coeff %d = (%d, %d), want (%d, %d)",
									bits, beta, perm != nil, add, b.Name(), j, got0[j], got1[j], w0, w1)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkMulPairRows: one limb of the key-switch MAC at the PN15
// full-depth shape — N = 2^15, β = 6 groups, both halves.
func BenchmarkMulPairRows(b *testing.B) {
	const logN, beta = 15, 6
	r := MustRing(1<<logN, primes.GenerateNTTPrimes(1, 36, logN))
	d, k0, k1 := macOperands(r, beta, 0)
	a0, a1 := make([]uint64, r.N), make([]uint64, r.N)
	for _, perm := range [][]int32{nil, r.GaloisPermNTT(5)} {
		b.Run(fmt.Sprintf("perm=%v", perm != nil), func(b *testing.B) {
			b.SetBytes(int64(8 * (3*beta + 2) * r.N)) // rows streamed per call
			for i := 0; i < b.N; i++ {
				r.MulPairRows(0, perm, d, k0, k1, 1, a0, a1, false)
			}
		})
	}
}
