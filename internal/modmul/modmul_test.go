package modmul

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mod"
	"repro/internal/primes"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

var testQs = []uint64{7681, 65537, 132120577, 68718428161, 1152921504606584833}

func TestBarrettUnit(t *testing.T) {
	for _, q := range testQs {
		u := NewBarrettUnit(q)
		ref := mod.NewModulus(q)
		rng := rand.New(rand.NewSource(int64(q)))
		for i := 0; i < 2000; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := u.Mul(a, b), ref.Mul(a, b); got != want {
				t.Fatalf("q=%d Barrett(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

func TestMontgomeryUnit(t *testing.T) {
	for _, q := range testQs {
		if q >= 1<<61 {
			continue // radix w+2 would exceed 63
		}
		u := NewMontgomeryUnit(q, 0)
		ref := mod.NewModulus(q)
		rng := rand.New(rand.NewSource(int64(q) + 1))
		for i := 0; i < 2000; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := u.Mul(a, b), ref.Mul(a, b); got != want {
				t.Fatalf("q=%d Montgomery(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
		// Domain conversion round trip.
		for i := 0; i < 100; i++ {
			a := rng.Uint64() % q
			if u.FromMont(u.ToMont(a)) != a {
				t.Fatalf("q=%d: Montgomery domain round trip failed", q)
			}
		}
	}
}

func friendlyTestPrimes(t testing.TB) []primes.FriendlyPrime {
	t.Helper()
	var out []primes.FriendlyPrime
	for _, f := range primes.Search(36, 16, 3) {
		// Need radix ≥ width+1 = 37 feasible: 2·v₂(Q-1) ≥ 37.
		if 2*f.TwoAdicity() >= 37 {
			out = append(out, f)
		}
		if len(out) == 8 {
			break
		}
	}
	if len(out) == 0 {
		t.Fatal("no feasible friendly primes found")
	}
	return out
}

func TestFriendlyUnit(t *testing.T) {
	for _, f := range friendlyTestPrimes(t) {
		u, err := NewFriendlyUnit(f, 0)
		if err != nil {
			t.Fatalf("prime %d: %v", f.Q, err)
		}
		ref := mod.NewModulus(f.Q)
		rng := rand.New(rand.NewSource(int64(f.Q)))
		for i := 0; i < 2000; i++ {
			a, b := rng.Uint64()%f.Q, rng.Uint64()%f.Q
			if got, want := u.Mul(a, b), ref.Mul(a, b); got != want {
				t.Fatalf("Q=%d friendly(%d,%d)=%d want %d", f.Q, a, b, got, want)
			}
		}
		// Shift-add networks must be small: that is the whole design point.
		if u.ShiftAddAdders() > 12 {
			t.Fatalf("Q=%d: shift-add network has %d adders — not hardware-friendly",
				f.Q, u.ShiftAddAdders())
		}
	}
}

// All three datapaths agree on the same friendly prime (property-based).
func TestDesignsAgreeQuick(t *testing.T) {
	f := friendlyTestPrimes(t)[0]
	ba := NewBarrettUnit(f.Q)
	mo := NewMontgomeryUnit(f.Q, 0)
	fr, err := NewFriendlyUnit(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint64) bool {
		a %= f.Q
		b %= f.Q
		x := ba.Mul(a, b)
		return x == mo.Mul(a, b) && x == fr.Mul(a, b)
	}
	if err := quick.Check(prop, quickConfig(t, 3000)); err != nil {
		t.Error(err)
	}
}

func TestFriendlyRadixValidation(t *testing.T) {
	// A prime with insufficient two-adicity for its width must be rejected.
	for _, f := range primes.Search(36, 16, 3) {
		if 2*f.TwoAdicity() < 37 {
			if _, err := NewFriendlyUnit(f, 0); err == nil {
				t.Fatalf("Q=%d: expected radix feasibility error", f.Q)
			}
			return
		}
	}
	t.Skip("all 36-bit family primes are radix-feasible")
}

func TestTableIAnchors(t *testing.T) {
	// Pipeline depths and area anchors straight from Table I.
	if Barrett.PipelineStages() != 4 || Montgomery.PipelineStages() != 3 ||
		FriendlyMontgomery.PipelineStages() != 3 {
		t.Fatal("pipeline stages disagree with Table I")
	}
	if AreaUM2(Barrett, 44) != 35054 || AreaUM2(Montgomery, 44) != 19255 ||
		AreaUM2(FriendlyMontgomery, 44) != 11328 {
		t.Fatal("anchor areas must reproduce Table I at width 44")
	}
	// Paper's headline reductions: 67.7% vs Barrett, 41.2% vs Montgomery.
	if r := ReductionVsBarrett(FriendlyMontgomery); r < 0.67 || r > 0.69 {
		t.Fatalf("reduction vs Barrett %.3f, paper says 0.677", r)
	}
	if r := ReductionVsMontgomery(); r < 0.40 || r > 0.42 {
		t.Fatalf("reduction vs Montgomery %.3f, paper says 0.412", r)
	}
}

func TestStructuralModelDirection(t *testing.T) {
	// Even without anchors, the structural model must order the designs
	// correctly and give double-digit-percent reductions.
	b := StructureAt(Barrett, 44, 0).Units()
	m := StructureAt(Montgomery, 44, 0).Units()
	f := StructureAt(FriendlyMontgomery, 44, 0).Units()
	if !(f < m && m < b) {
		t.Fatalf("structural ordering violated: %v %v %v", f, m, b)
	}
	if red := ModelReductionVsBarrett(FriendlyMontgomery); red < 0.30 {
		t.Fatalf("structural reduction vs Barrett only %.2f", red)
	}
}

func TestAreaScalesWithWidth(t *testing.T) {
	for _, d := range []Design{Barrett, Montgomery, FriendlyMontgomery} {
		a32 := AreaUM2(d, 32)
		a44 := AreaUM2(d, 44)
		a64 := AreaUM2(d, 64)
		if !(a32 < a44 && a44 < a64) {
			t.Fatalf("%v: area not monotone in width", d)
		}
		// Multiplier-dominated designs grow superlinearly.
		if d != FriendlyMontgomery && a64/a44 < float64(64)/44 {
			t.Fatalf("%v: width scaling implausibly sublinear", d)
		}
	}
}

func BenchmarkBarrettMul(b *testing.B) {
	u := NewBarrettUnit(68718428161)
	x, y := uint64(123456789), uint64(987654321)
	for i := 0; i < b.N; i++ {
		x = u.Mul(x, y)
	}
	_ = x
}

func BenchmarkFriendlyMul(b *testing.B) {
	f := friendlyTestPrimes(b)[0]
	u, _ := NewFriendlyUnit(f, 0)
	x, y := uint64(123456789)%f.Q, uint64(987654321)%f.Q
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = u.REDC(x, y)
	}
	_ = x
}
