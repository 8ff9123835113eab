package ring

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lanes"
	"repro/internal/primes"
)

// bindingCase is one kernel that forks on Backend().Specialized(). run
// takes arity operand polynomials, which it must not modify, and returns
// every row the kernel wrote.
type bindingCase struct {
	name  string
	arity int
	run   func(r *Ring, in []*Poly) [][]uint64
}

// nttCopy returns a copy of p flagged as NTT-domain, for kernels that
// guard the domain flag (any residues are valid evaluation-domain input).
func nttCopy(r *Ring, p *Poly) *Poly {
	c := r.CopyPoly(p)
	c.IsNTT = true
	return c
}

// bindingCases lists the nine fork sites: NTT, INTT, MulCoeffs and
// MulScalar in ring.go, MulPairRows, SubMulAddRow, ForwardLimb and
// InverseLimb in fastrows.go, MulPermAdd in galois.go.
func bindingCases(galois []int32) []bindingCase {
	perms := [][]int32{nil, galois}
	return []bindingCase{
		{"NTT", 1, func(r *Ring, in []*Poly) [][]uint64 {
			p := r.CopyPoly(in[0])
			r.NTT(p)
			return p.Coeffs
		}},
		{"INTT", 1, func(r *Ring, in []*Poly) [][]uint64 {
			p := nttCopy(r, in[0])
			r.INTT(p)
			return p.Coeffs
		}},
		{"MulCoeffs", 2, func(r *Ring, in []*Poly) [][]uint64 {
			out := r.NewPoly()
			r.MulCoeffs(nttCopy(r, in[0]), nttCopy(r, in[1]), out)
			return out.Coeffs
		}},
		{"MulScalar", 1, func(r *Ring, in []*Poly) (rows [][]uint64) {
			for _, s := range []uint64{0, 1, r.Basis.Moduli[0].Q - 1, ^uint64(0), 0x9e3779b97f4a7c15} {
				out := r.NewPoly()
				r.MulScalar(in[0], s, out)
				rows = append(rows, out.Coeffs...)
			}
			return rows
		}},
		{"MulPairRows", 3, func(r *Ring, in []*Poly) (rows [][]uint64) {
			// β = 5 groups: one full lazy block of four plus a flush.
			order := [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2}}
			for limb := 0; limb < r.K(); limb++ {
				var d [][]uint64
				var k0, k1 []*Poly
				for _, o := range order {
					d = append(d, in[o[0]].Coeffs[limb])
					k0 = append(k0, in[o[1]])
					k1 = append(k1, in[o[2]])
				}
				for _, perm := range perms {
					for _, add := range []bool{false, true} {
						// Without add the rows arrive dirty and must be overwritten.
						a0 := append([]uint64(nil), in[1].Coeffs[limb]...)
						a1 := append([]uint64(nil), in[2].Coeffs[limb]...)
						r.MulPairRows(limb, perm, d, k0, k1, limb, a0, a1, add)
						rows = append(rows, a0, a1)
					}
				}
			}
			return rows
		}},
		{"SubMulAddRow", 3, func(r *Ring, in []*Poly) (rows [][]uint64) {
			for limb, m := range r.Basis.Moduli {
				for _, inv := range []uint64{0, 1, m.Q - 1, m.Inv(3)} {
					oi := append([]uint64(nil), in[2].Coeffs[limb]...)
					r.SubMulAddRow(limb, inv, in[0].Coeffs[limb], in[1].Coeffs[limb], oi)
					rows = append(rows, oi)
				}
			}
			return rows
		}},
		{"ForwardLimb", 1, func(r *Ring, in []*Poly) [][]uint64 {
			p := r.CopyPoly(in[0])
			for i, row := range p.Coeffs {
				r.ForwardLimb(i, row)
			}
			return p.Coeffs
		}},
		{"InverseLimb", 1, func(r *Ring, in []*Poly) [][]uint64 {
			p := r.CopyPoly(in[0])
			for i, row := range p.Coeffs {
				r.InverseLimb(i, row)
			}
			return p.Coeffs
		}},
		{"MulPermAdd", 3, func(r *Ring, in []*Poly) (rows [][]uint64) {
			for _, perm := range perms {
				out := nttCopy(r, in[2])
				r.MulPermAdd(nttCopy(r, in[0]), perm, nttCopy(r, in[1]), out)
				rows = append(rows, out.Coeffs...)
			}
			return rows
		}},
	}
}

// bindingOperands returns two uniform polynomials and the constant
// polynomials 0, 1 and q−1 (per limb) — the residues at both ends of
// the range, where a lazy reduction that forgets its last correction
// shows.
func bindingOperands(r *Ring, stream uint64) []*Poly {
	ops := []*Poly{r.NewPoly(), r.NewPoly()}
	r.UniformPoly(src(stream), ops[0])
	r.UniformPoly(src(stream+1), ops[1])
	for _, c := range []int64{0, 1, -1} {
		p := r.NewPoly()
		for i, m := range r.Basis.Moduli {
			v := uint64(c)
			if c < 0 {
				v = m.Q - 1
			}
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = v
			}
		}
		ops = append(ops, p)
	}
	return ops
}

// TestBindingsAgree runs every kernel that forks on Specialized() under
// lanes.Portable and lanes.Fast, in process, on the same operands — every
// tuple drawn from bindingOperands, at 36-bit and 61-bit primes — and
// requires byte-equal outputs. MulPermAdd runs with a nil and a Galois
// permutation, MulPairRows with add on and off.
func TestBindingsAgree(t *testing.T) {
	const logN = 8
	for _, bits := range []int{36, 61} {
		r := MustRing(1<<logN, primes.GenerateNTTPrimes(2, bits, logN))
		ops := bindingOperands(r, uint64(bits))
		for _, tc := range bindingCases(r.GaloisPermNTT(5)) {
			idx := make([]int, tc.arity)
			for {
				in := make([]*Poly, tc.arity)
				for k, i := range idx {
					in[k] = ops[i]
				}
				r.SetBackend(lanes.Portable)
				want := tc.run(r, in)
				r.SetBackend(lanes.Fast)
				got := tc.run(r, in)
				if len(got) != len(want) {
					t.Fatalf("%d-bit %s operands %v: %d rows, want %d", bits, tc.name, idx, len(got), len(want))
				}
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("%d-bit %s operands %v: row %d coeff %d fast %d, portable %d",
								bits, tc.name, idx, i, j, got[i][j], want[i][j])
						}
					}
				}
				// Next operand tuple, odometer order.
				k := 0
				for ; k < len(idx); k++ {
					if idx[k]++; idx[k] < len(ops) {
						break
					}
					idx[k] = 0
				}
				if k == len(idx) {
					break
				}
			}
		}
	}
}

// TestBindingsAgreeCoversEveryFork: a kernel that gains a Specialized()
// fork must gain a row in bindingCases too.
func TestBindingsAgreeCoversEveryFork(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forks := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		forks += strings.Count(string(src), "Specialized()")
	}
	if cases := len(bindingCases(nil)); forks != cases {
		t.Fatalf("%d Specialized() forks in package ring, %d rows in bindingCases", forks, cases)
	}
}
