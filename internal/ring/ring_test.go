package ring

import (
	"testing"

	"repro/internal/lanes"
	"repro/internal/primes"
	"repro/internal/prng"
)

func testRing(t testing.TB) *Ring {
	t.Helper()
	return MustRing(256, primes.GenerateNTTPrimes(3, 30, 8))
}

func src(stream uint64) *prng.Source {
	return prng.NewSource(prng.SeedFromUint64s(123, 456), stream)
}

func TestNTTRoundTrip(t *testing.T) {
	r := testRing(t)
	p := r.NewPoly()
	r.UniformPoly(src(0), p)
	orig := r.CopyPoly(p)
	r.NTT(p)
	if !p.IsNTT {
		t.Fatal("domain flag not set")
	}
	r.INTT(p)
	if !r.Equal(p, orig) {
		t.Fatal("NTT/INTT round trip failed")
	}
}

func TestDomainGuards(t *testing.T) {
	r := testRing(t)
	p := r.NewPoly()
	mustPanic(t, func() { r.INTT(p) })
	r.NTT(p)
	mustPanic(t, func() { r.NTT(p) })
	q := r.NewPoly() // coefficient domain
	mustPanic(t, func() { r.Add(p, q, r.NewPoly()) })
	mustPanic(t, func() { r.MulCoeffs(q, q, r.NewPoly()) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestAddSubNeg(t *testing.T) {
	r := testRing(t)
	a, b := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src(1), a)
	r.UniformPoly(src(2), b)
	sum, diff := r.NewPoly(), r.NewPoly()
	r.Add(a, b, sum)
	r.Sub(sum, b, diff)
	if !r.Equal(diff, a) {
		t.Fatal("(a+b)-b != a")
	}
	neg := r.NewPoly()
	r.Neg(a, neg)
	r.Add(a, neg, sum)
	for i := range sum.Coeffs {
		for _, v := range sum.Coeffs[i] {
			if v != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

// Ring product distributes over addition: (a+b)·c = a·c + b·c per limb.
func TestMulDistributes(t *testing.T) {
	r := testRing(t)
	a, b, c := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.UniformPoly(src(3), a)
	r.UniformPoly(src(4), b)
	r.UniformPoly(src(5), c)
	r.NTT(a)
	r.NTT(b)
	r.NTT(c)

	left := r.NewPoly()
	r.Add(a, b, left)
	r.MulCoeffs(left, c, left)

	ac, bc := r.NewPoly(), r.NewPoly()
	r.MulCoeffs(a, c, ac)
	r.MulCoeffs(b, c, bc)
	right := r.NewPoly()
	r.Add(ac, bc, right)

	if !r.Equal(left, right) {
		t.Fatal("distributivity failed")
	}
}

// NTT-domain multiplication must agree with the naive negacyclic product
// on each limb.
func TestMulMatchesNaivePerLimb(t *testing.T) {
	r := MustRing(64, primes.GenerateNTTPrimes(2, 20, 6))
	a, b := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src(6), a)
	r.UniformPoly(src(7), b)

	for i, tbl := range r.Tables {
		want := tbl.PolyMulNaive(a.Coeffs[i], b.Coeffs[i])
		got := tbl.PolyMulNTT(a.Coeffs[i], b.Coeffs[i])
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("limb %d: naive vs NTT mismatch at %d", i, j)
			}
		}
	}
}

func TestSharedSampling(t *testing.T) {
	r := testRing(t)
	p := r.NewPoly()
	r.TernaryPoly(src(8), p)
	// All limbs must represent the same centered integer per coefficient.
	for j := 0; j < r.N; j++ {
		v0 := r.Basis.Moduli[0].Centered(p.Coeffs[0][j])
		if v0 < -1 || v0 > 1 {
			t.Fatalf("non-ternary value %d", v0)
		}
		for i := 1; i < r.K(); i++ {
			if r.Basis.Moduli[i].Centered(p.Coeffs[i][j]) != v0 {
				t.Fatalf("limb %d coefficient %d disagrees", i, j)
			}
		}
	}

	g := r.NewPoly()
	r.GaussianPoly(src(9), g)
	for j := 0; j < r.N; j++ {
		v0 := r.Basis.Moduli[0].Centered(g.Coeffs[0][j])
		if v0 < -prng.GaussianTailCut || v0 > prng.GaussianTailCut {
			t.Fatalf("gaussian out of tail bound: %d", v0)
		}
	}
}

// TestExpandSignedBitsMatchesFromCentered: the division-free sign-mask
// expansion gives the residue the signed remainder gives, on the edge
// values of its |v| < q contract, for a 36-bit and a 61-bit prime and a
// ring shaped like the hybrid Q·P basis (a 36-bit Q chain followed by its
// special primes).
func TestExpandSignedBitsMatchesFromCentered(t *testing.T) {
	const logN = 4
	qp := primes.GenerateNTTPrimes(5, 36, logN) // Q = qp[:3], P = qp[3:]
	for _, tc := range []struct {
		name   string
		primes []uint64
	}{
		{"36-bit", primes.GenerateNTTPrimes(1, 36, logN)},
		{"61-bit", primes.GenerateNTTPrimes(1, 61, logN)},
		{"Q·P", qp},
	} {
		r := MustRing(1<<logN, tc.primes)
		qMin := tc.primes[0]
		for _, q := range tc.primes {
			qMin = min(qMin, q)
		}
		edge := []int64{0, 1, -1, 20, -20, int64(qMin - 1), -int64(qMin - 1)}
		vals := make([]uint64, r.N)
		for j := range vals {
			vals[j] = uint64(edge[j%len(edge)])
		}
		p := r.NewPoly()
		r.ExpandSignedBits(vals, p)
		for i, m := range r.Basis.Moduli {
			for j, v := range vals {
				if want := m.FromCentered(int64(v)); p.Coeffs[i][j] != want {
					t.Fatalf("%s limb %d: %d expands to %d, FromCentered gives %d",
						tc.name, i, int64(v), p.Coeffs[i][j], want)
				}
			}
		}
	}
}

func TestAtLevel(t *testing.T) {
	r := testRing(t)
	v := r.AtLevel(2)
	if v.K() != 2 || v.N != r.N {
		t.Fatal("level view shape wrong")
	}
	p := v.NewPoly()
	if p.Level() != 2 {
		t.Fatal("poly from level view has wrong limb count")
	}
	v.UniformPoly(src(10), p)
	v.NTT(p)
	v.INTT(p)
	mustPanic(t, func() { r.AtLevel(0) })
	mustPanic(t, func() { r.AtLevel(r.K() + 1) })
}

func TestMulScalar(t *testing.T) {
	r := testRing(t)
	a := r.NewPoly()
	r.UniformPoly(src(11), a)
	out := r.NewPoly()
	r.MulScalar(a, 3, out)
	ref := r.NewPoly()
	r.Add(a, a, ref)
	r.Add(ref, a, ref)
	if !r.Equal(out, ref) {
		t.Fatal("3·a != a+a+a")
	}
}

func BenchmarkRingNTT(b *testing.B) {
	r := MustRing(4096, primes.GenerateNTTPrimes(4, 36, 12))
	p := r.NewPoly()
	r.UniformPoly(src(0), p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTT(p)
		r.INTT(p)
	}
}

// Lane engine: results must be bit-identical at any worker count.
func TestLaneEngineDeterminism(t *testing.T) {
	run := func(workers int) (*Ring, *Poly, *Poly) {
		r := testRing(t)
		e := lanes.New(workers)
		defer e.Close()
		r.SetEngine(e)
		a, b := r.NewPoly(), r.NewPoly()
		r.UniformPoly(src(20), a)
		r.TernaryPoly(src(21), b)
		r.NTT(a)
		r.NTT(b)
		prod := r.NewPoly()
		r.MulCoeffs(a, b, prod)
		r.INTT(prod)
		sum := r.NewPoly()
		r.Add(a, b, sum)
		return r, prod, sum
	}
	r1, prod1, sum1 := run(1)
	for _, w := range []int{2, 8} {
		_, prodW, sumW := run(w)
		if !r1.Equal(prod1, prodW) || !r1.Equal(sum1, sumW) {
			t.Fatalf("results differ between 1 and %d workers", w)
		}
	}
}

func TestPolyPool(t *testing.T) {
	r := testRing(t)
	p := r.GetPoly()
	if p.Level() != r.K() || len(p.Coeffs[0]) != r.N {
		t.Fatal("pooled poly has wrong shape")
	}
	for i := range p.Coeffs {
		for _, v := range p.Coeffs[i] {
			if v != 0 {
				t.Fatal("GetPoly must return a zeroed poly")
			}
		}
	}
	r.UniformPoly(src(22), p)
	r.PutPoly(p)
	if p.Coeffs != nil {
		t.Fatal("PutPoly must clear the poly's storage reference")
	}
	r.PutPoly(p) // double put is a safe no-op
	q := r.GetPoly()
	for i := range q.Coeffs {
		for _, v := range q.Coeffs[i] {
			if v != 0 {
				t.Fatal("recycled poly not re-zeroed")
			}
		}
	}
	r.PutPoly(q)
	// Non-pooled polys pass through PutPoly untouched.
	n := r.NewPoly()
	r.PutPoly(n)
	if n.Coeffs == nil {
		t.Fatal("PutPoly must not claim NewPoly storage")
	}
	// Pooled copies preserve contents and domain.
	orig := r.NewPoly()
	r.UniformPoly(src(23), orig)
	r.NTT(orig)
	cp := r.GetPolyCopy(orig)
	if !r.Equal(cp, orig) {
		t.Fatal("GetPolyCopy must preserve contents")
	}
	r.PutPoly(cp)
}

func TestEngineInheritedByLevelView(t *testing.T) {
	r := testRing(t)
	e := lanes.New(2)
	defer e.Close()
	r.SetEngine(e)
	if r.AtLevel(2).Engine() != e {
		t.Fatal("level view must inherit the ring's engine")
	}
	r.SetEngine(nil)
	if r.Engine() != lanes.Default() {
		t.Fatal("nil engine must fall back to the shared default")
	}
}

// TestJoinSharesTablesAndBinding: Sibling and Join build rings that share
// the parent's binding, and Join's basis is the parent's prefix followed
// by the sibling's primes over the two rings' own NTT tables.
func TestJoinSharesTablesAndBinding(t *testing.T) {
	all := primes.GenerateNTTPrimes(5, 30, 8)
	q := MustRing(256, all[:3])
	p, err := q.Sibling(all[3:])
	if err != nil {
		t.Fatal(err)
	}
	qp := q.Join(2, p)
	want := []uint64{all[0], all[1], all[3], all[4]}
	for i, pr := range qp.Basis.Primes() {
		if pr != want[i] {
			t.Fatalf("joined prime %d = %d, want %d", i, pr, want[i])
		}
	}
	if qp.K() != len(want) || qp.Tables[1] != q.Tables[1] || qp.Tables[2] != p.Tables[0] {
		t.Fatal("Join must reuse the prefix's and the sibling's NTT tables")
	}
	e := lanes.New(2)
	defer e.Close()
	p.SetEngine(e)
	p.SetBackend(lanes.Portable)
	for _, r := range []*Ring{q, q.AtLevel(1), p, qp} {
		if r.Engine() != e || r.Backend() != lanes.Portable {
			t.Fatal("every view must share one binding")
		}
	}
	mustPanic(t, func() { q.Join(0, p) })
	mustPanic(t, func() { q.Join(4, p) })
}

// TestGetPolyZeroesReusedSlab: a pooled polynomial of fewer limbs than the
// idle slab it reuses comes back all zero.
func TestGetPolyZeroesReusedSlab(t *testing.T) {
	r := MustRing(1<<5, primes.GenerateNTTPrimes(5, 36, 5)) // a degree no other test pools
	big := r.GetPolyUninit()
	for _, row := range big.Coeffs {
		for j := range row {
			row[j] = 7
		}
	}
	first := &big.Coeffs[0][0]
	r.PutPoly(big)
	small := r.AtLevel(2).GetPoly()
	if &small.Coeffs[0][0] != first {
		t.Fatal("the 2-limb poly did not reuse the idle 5-limb slab")
	}
	if len(small.Coeffs) != 2 {
		t.Fatalf("%d limbs, want 2", len(small.Coeffs))
	}
	for i, row := range small.Coeffs {
		for j, v := range row {
			if v != 0 {
				t.Fatalf("limb %d coeff %d = %d after GetPoly", i, j, v)
			}
		}
	}
	r.PutPoly(small)
}
