package ring

import (
	"slices"
	"testing"

	"repro/internal/primes"
)

// TestNarrowPolyRoundTrip: a narrow polynomial decodes to the residues it
// was built from — whole rows and sub-ranges — at 36-bit primes (uint8
// high plane, 5 B per residue) and 61-bit primes (uint32 high plane, 8 B),
// with every row's coefficient 0 at q − 1, the widest residue.
func TestNarrowPolyRoundTrip(t *testing.T) {
	const logN = 8
	for _, c := range []struct{ bits, residueBytes int }{{36, 5}, {40, 5}, {41, 8}, {61, 8}} {
		r := MustRing(1<<logN, primes.GenerateNTTPrimes(3, c.bits, logN))
		p := r.NewPoly()
		for i, row := range p.Coeffs {
			src(uint64(100*c.bits+i)).UniformPoly(row, r.Basis.Moduli[i].Q)
			row[0] = r.Basis.Moduli[i].Q - 1
		}
		np := r.Narrow(p)
		if got := NarrowResidueBytes(c.bits); got != c.residueBytes {
			t.Fatalf("%d-bit: %d B per residue, want %d", c.bits, got, c.residueBytes)
		}
		if np.Bytes() != c.residueBytes*r.K()*r.N {
			t.Fatalf("%d-bit: %d B, want %d", c.bits, np.Bytes(), c.residueBytes*r.K()*r.N)
		}
		if !r.Equal(r.Widen(&np), p) {
			t.Fatalf("%d-bit: Widen(Narrow(p)) != p", c.bits)
		}
		tile := make([]uint64, 16)
		np.Load(2, 32, tile)
		if !slices.Equal(tile, p.Coeffs[2][32:48]) {
			t.Fatalf("%d-bit: Load of limb 2 [32, 48) differs", c.bits)
		}
		np.Store(1, 16, tile)
		w := r.Widen(&np)
		if !slices.Equal(w.Coeffs[1][16:32], p.Coeffs[2][32:48]) || !slices.Equal(w.Coeffs[1][:16], p.Coeffs[1][:16]) {
			t.Fatalf("%d-bit: Store of a sub-range wrote the wrong residues", c.bits)
		}
	}
}

// TestNarrowPolyRejectsWideResidue: a uint8 high plane refuses a word it
// cannot hold instead of truncating it.
func TestNarrowPolyRejectsWideResidue(t *testing.T) {
	r := MustRing(16, primes.GenerateNTTPrimes(1, 36, 4))
	np := r.NewNarrowPoly()
	defer func() {
		if recover() == nil {
			t.Fatal("a 41-bit word was stored in a 40-bit narrow row")
		}
	}()
	np.Store(0, 0, []uint64{1 << 40})
}
