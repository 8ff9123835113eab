package rns

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/primes"
)

// presetChains mirrors the prime-chain shapes of every ckks preset
// (ParamSpec values; ckks itself cannot be imported here without a cycle):
// limbs × limb bits × logN, from the paper's PN16 evaluation set down to
// the test/tiny rings.
var presetChains = []struct {
	name  string
	limbs int
	bits  int
	logN  int
}{
	{"PN16", 24, 36, 16},
	{"PN15", 24, 36, 15},
	{"PN14", 24, 36, 14},
	{"PN13", 12, 36, 13},
	{"Test", 4, 36, 10},
	{"Tiny", 3, 30, 8},
}

func presetBasis(limbs, bits, logN int) *Basis {
	return MustBasis(primes.GenerateNTTPrimes(limbs, bits, logN))
}

// combineScales are the divisors the agreement checks run at: unit, the
// Test-preset Δ, and the paper's double-scale Δ.
var combineScales = []float64{1, 0x1p30, 0x1p66}

// relClose reports got ≈ want within tol relative error (exact match
// required at zero).
func relClose(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// combineTol is the asserted fast-vs-oracle agreement. The acceptance bar
// is 1e-9; the implementation's worst case (three float64 roundings plus a
// 2^-64 truncation) sits orders of magnitude below even this.
const combineTol = 1e-12

// checkAgreement drives one residue vector through the fast combine and
// the big.Int oracle at every test scale and asserts agreement, plus the
// expand round trip of the exact reconstruction.
func checkAgreement(t *testing.T, b *Basis, limbs []uint64) {
	t.Helper()
	scratch := make([]uint64, b.CombineScratchLen())
	v := b.CombineCentered(limbs)
	for _, scale := range combineScales {
		want := b.CombineCenteredFloatBig(limbs, scale)
		got := b.CombineCenteredFloatScratch(limbs, scale, scratch)
		if !relClose(got, want, combineTol) {
			t.Fatalf("K=%d scale=%g: fast %v != oracle %v (residues %v)",
				b.K(), scale, got, want, limbs)
		}
		if conv := b.CombineCenteredFloat(limbs, scale); conv != got {
			t.Fatalf("K=%d: convenience form %v != scratch form %v", b.K(), conv, got)
		}
	}
	// The centered lift must reduce back to the original residues.
	back := make([]uint64, b.K())
	b.ExpandBig(v, back)
	for i, m := range b.Moduli {
		if back[i] != limbs[i]%m.Q {
			t.Fatalf("K=%d limb %d: reconstruct %d != %d", b.K(), i, back[i], limbs[i]%m.Q)
		}
	}
}

// TestCombineFastMatchesBigInt is the quickcheck-style headliner: random
// limb vectors at every level of every preset chain, through both paths.
func TestCombineFastMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, pc := range presetChains {
		full := presetBasis(pc.limbs, pc.bits, pc.logN)
		for level := 1; level <= full.K(); level++ {
			b := full.Sub(level)
			limbs := make([]uint64, level)
			for iter := 0; iter < 20; iter++ {
				for i, m := range b.Moduli {
					limbs[i] = rng.Uint64() % m.Q
				}
				checkAgreement(t, b, limbs)
			}
			// Unreduced residues must behave like their reductions.
			for i := range limbs {
				limbs[i] = rng.Uint64()
			}
			checkAgreement(t, b, limbs)
		}
	}
}

// TestCombineFastBoundaries pins the centered-lift edge cases: zero, ±1,
// all-(q-1), floor(Q/2) and floor(Q/2)+1 (the sign flip), and single-limb
// one-hot vectors.
func TestCombineFastBoundaries(t *testing.T) {
	for _, pc := range presetChains[3:] { // PN13/Test/Tiny keep it quick
		full := presetBasis(pc.limbs, pc.bits, pc.logN)
		for level := 1; level <= full.K(); level++ {
			b := full.Sub(level)
			limbs := make([]uint64, level)

			cases := []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(-1),
				new(big.Int).Set(b.halfQ),
				new(big.Int).Add(b.halfQ, big.NewInt(1)),
				new(big.Int).Sub(b.Q, big.NewInt(1)),
			}
			for _, v := range cases {
				b.ExpandBig(v, limbs)
				checkAgreement(t, b, limbs)
			}
			for hot := 0; hot < level; hot++ {
				for i := range limbs {
					limbs[i] = 0
				}
				limbs[hot] = b.Moduli[hot].Q - 1
				checkAgreement(t, b, limbs)
			}
		}
	}
}

// TestCombineFastQuick checks the fast path against exact small-integer
// arithmetic: expanding any int64 and combining must return v/scale.
func TestCombineFastQuick(t *testing.T) {
	b := presetBasis(4, 36, 10)
	scratch := make([]uint64, b.CombineScratchLen())
	limbs := make([]uint64, b.K())
	f := func(v int64) bool {
		b.ExpandInt64(v, limbs)
		got := b.CombineCenteredFloatScratch(limbs, 0x1p30, scratch)
		return got == float64(v)/0x1p30
	}
	if err := quick.Check(f, quickConfig(t, 2000)); err != nil {
		t.Error(err)
	}
}

// TestCombineScratchLen pins the scratch contract: one guard word above
// the word count of Q.
func TestCombineScratchLen(t *testing.T) {
	for _, pc := range presetChains {
		b := presetBasis(pc.limbs, pc.bits, pc.logN)
		want := (b.Q.BitLen()+63)/64 + 1
		if got := b.CombineScratchLen(); got != want {
			t.Fatalf("%s: scratch len %d want %d", pc.name, got, want)
		}
	}
}

// TestCombineFastAllocationFree asserts the hot path performs zero
// allocations with caller-owned scratch, and that the pooled-scratch
// exact paths no longer allocate per limb.
func TestCombineFastAllocationFree(t *testing.T) {
	b := presetBasis(24, 36, 16)
	limbs := make([]uint64, b.K())
	rng := rand.New(rand.NewSource(3))
	for i, m := range b.Moduli {
		limbs[i] = rng.Uint64() % m.Q
	}
	scratch := make([]uint64, b.CombineScratchLen())
	if n := testing.AllocsPerRun(200, func() {
		b.CombineCenteredFloatScratch(limbs, 0x1p66, scratch)
	}); n != 0 {
		t.Fatalf("fast combine allocates %.1f/op, want 0", n)
	}

	// The exact path used to allocate one big.Int product per limb (24+
	// allocs/op on this basis); pooled scratch leaves only big.Int.Mod's
	// internal division temporaries.
	out := new(big.Int)
	if n := testing.AllocsPerRun(200, func() {
		b.CombineCenteredInto(out, limbs)
	}); n >= float64(b.K()) {
		t.Fatalf("CombineCenteredInto allocates %.1f/op, want < %d", n, b.K())
	}
	expand := make([]uint64, b.K())
	v := b.CombineCentered(limbs)
	if n := testing.AllocsPerRun(200, func() {
		b.ExpandBig(v, expand)
	}); n >= float64(b.K()) {
		t.Fatalf("ExpandBig allocates %.1f/op, want < %d", n, b.K())
	}
}

// TestSubMemoized pins the prefix views: the full-width view is the basis
// itself, and a narrower one is the prefix of its primes. The name is
// older than Sub building each view afresh.
func TestSubMemoized(t *testing.T) {
	b := presetBasis(4, 36, 10)
	if b.Sub(b.K()) != b {
		t.Fatal("full-width Sub must return the basis itself")
	}
	s1 := b.Sub(2)
	if s1.K() != 2 || s1.Primes()[0] != b.Primes()[0] {
		t.Fatal("Sub(2) must be the 2-limb prefix")
	}
}

func BenchmarkCombineFloatFast24(b *testing.B) {
	basis := presetBasis(24, 36, 16)
	limbs := make([]uint64, basis.K())
	rng := rand.New(rand.NewSource(5))
	for i, m := range basis.Moduli {
		limbs[i] = rng.Uint64() % m.Q
	}
	scratch := make([]uint64, basis.CombineScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis.CombineCenteredFloatScratch(limbs, 0x1p66, scratch)
	}
}

func BenchmarkCombineFloatBig24(b *testing.B) {
	basis := presetBasis(24, 36, 16)
	limbs := make([]uint64, basis.K())
	rng := rand.New(rand.NewSource(5))
	for i, m := range basis.Moduli {
		limbs[i] = rng.Uint64() % m.Q
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis.CombineCenteredFloatBig(limbs, 0x1p66)
	}
}
