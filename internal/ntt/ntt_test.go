package ntt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/primes"
	"repro/internal/prng"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// Test moduli: (N, q) pairs with q ≡ 1 mod 2N.
var testCfgs = []struct {
	n int
	q uint64
}{
	{8, 97},             // tiny: 97 ≡ 1 mod 16
	{16, 97},            // 97 ≡ 1 mod 32
	{256, 7681},         // Kyber-era prime
	{1024, 132120577},   // 27-bit
	{4096, 68718428161}, // 36-bit CKKS limb
	{64, primes.GenerateNTTPrimes(1, 61, 6)[0]}, // 61-bit: the widest limbs
}

func randPoly(n int, q uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	return a
}

func TestForwardInverseIdentity(t *testing.T) {
	for _, cfg := range testCfgs {
		tbl := MustTable(cfg.n, cfg.q)
		a := randPoly(cfg.n, cfg.q, 1)
		b := append([]uint64(nil), a...)
		tbl.Forward(b)
		tbl.Inverse(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("N=%d q=%d: INTT(NTT(a)) != a at %d", cfg.n, cfg.q, i)
			}
		}
	}
}

func TestPolyMulMatchesNaive(t *testing.T) {
	for _, cfg := range testCfgs {
		if cfg.n > 1024 {
			continue // naive is O(N²)
		}
		tbl := MustTable(cfg.n, cfg.q)
		a := randPoly(cfg.n, cfg.q, 2)
		b := randPoly(cfg.n, cfg.q, 3)
		got := tbl.PolyMulNTT(a, b)
		want := tbl.PolyMulNaive(a, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("N=%d q=%d: NTT product differs from naive at %d: %d vs %d",
					cfg.n, cfg.q, i, got[i], want[i])
			}
		}
	}
}

// The negacyclic wrap: X^N ≡ -1. Multiplying by X (shift by one) must
// negate the wrapped coefficient.
func TestNegacyclicWrap(t *testing.T) {
	tbl := MustTable(16, 97)
	a := make([]uint64, 16)
	a[15] = 5 // a = 5·X^15
	x := make([]uint64, 16)
	x[1] = 1 // multiply by X
	got := tbl.PolyMulNTT(a, x)
	// 5·X^16 = -5
	if got[0] != 97-5 {
		t.Fatalf("X^N wrap: got %d want %d", got[0], 97-5)
	}
	for i := 1; i < 16; i++ {
		if got[i] != 0 {
			t.Fatalf("unexpected coefficient at %d", i)
		}
	}
}

// Linearity of the transform (property-based): NTT(αa + b) = αNTT(a)+NTT(b).
func TestNTTLinearityQuick(t *testing.T) {
	tbl := MustTable(64, 7681)
	m := tbl.Mod
	f := func(seedA, seedB int64, alpha uint64) bool {
		alpha %= tbl.Mod.Q
		a := randPoly(64, tbl.Mod.Q, seedA)
		b := randPoly(64, tbl.Mod.Q, seedB)
		lin := make([]uint64, 64)
		for i := range lin {
			lin[i] = m.Add(m.Mul(alpha, a[i]), b[i])
		}
		tbl.Forward(lin)
		tbl.Forward(a)
		tbl.Forward(b)
		for i := range lin {
			if lin[i] != m.Add(m.Mul(alpha, a[i]), b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 50)); err != nil {
		t.Error(err)
	}
}

// Transform of PRNG-generated polynomials: exercises the integration the
// accelerator performs (PRNG → NTT) and checks the round trip.
func TestPRNGToNTTIntegration(t *testing.T) {
	tbl := MustTable(4096, 68718428161)
	src := prng.NewSource(prng.SeedFromUint64s(99, 100), 0)
	a := make([]uint64, 4096)
	src.UniformPoly(a, tbl.Mod.Q)
	orig := append([]uint64(nil), a...)
	tbl.Forward(a)
	tbl.Inverse(a)
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestBitReverse(t *testing.T) {
	a := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	BitReverse(a)
	want := []uint64{0, 4, 2, 6, 1, 5, 3, 7}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("BitReverse: got %v want %v", a, want)
		}
	}
	BitReverse(a) // involution
	for i := range a {
		if a[i] != uint64(i) {
			t.Fatal("BitReverse is not an involution")
		}
	}
}

func BenchmarkNTTForward4096(b *testing.B) {
	tbl := MustTable(4096, 68718428161)
	a := randPoly(4096, tbl.Mod.Q, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Forward(a)
	}
}

func BenchmarkNTTForward65536(b *testing.B) {
	tbl := MustTable(65536, 68718428161)
	a := randPoly(65536, tbl.Mod.Q, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Forward(a)
	}
}

func TestForwardLazyMatchesForward(t *testing.T) {
	for _, cfg := range testCfgs {
		tbl := MustTable(cfg.n, cfg.q)
		a := randPoly(cfg.n, cfg.q, 9)
		ref := append([]uint64(nil), a...)
		lz := append([]uint64(nil), a...)
		tbl.Forward(ref)
		tbl.ForwardLazy(lz)
		for i := range ref {
			if ref[i] != lz[i] {
				t.Fatalf("N=%d q=%d: lazy forward differs at %d: %d vs %d",
					cfg.n, cfg.q, i, lz[i], ref[i])
			}
		}
	}
}

// Property: lazy and strict forward transforms agree on arbitrary inputs.
func TestForwardLazyQuick(t *testing.T) {
	tbl := MustTable(256, 7681)
	f := func(seed int64) bool {
		a := randPoly(256, tbl.Mod.Q, seed)
		b := append([]uint64(nil), a...)
		tbl.Forward(a)
		tbl.ForwardLazy(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Error(err)
	}
}

// benchLazySizes times one lazy kernel over the client's ring degrees,
// N = 2^13 … 2^16, on a 36-bit limb prime; MB/s counts one row of 8·N
// bytes per transform.
func benchLazySizes(b *testing.B, run func(*Table, []uint64)) {
	for logN := 13; logN <= 16; logN++ {
		n := 1 << logN
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tbl := MustTable(n, 68718428161)
			a := randPoly(n, tbl.Mod.Q, 1)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(tbl, a)
			}
		})
	}
}

func BenchmarkNTTForwardLazy(b *testing.B) { benchLazySizes(b, (*Table).ForwardLazy) }

func BenchmarkNTTInverseLazy(b *testing.B) { benchLazySizes(b, (*Table).InverseLazy) }

func TestInverseLazyMatchesInverse(t *testing.T) {
	for _, cfg := range testCfgs {
		tbl := MustTable(cfg.n, cfg.q)
		a := randPoly(cfg.n, cfg.q, 10)
		tbl.Forward(a) // inverse-transform a genuine evaluation vector
		ref := append([]uint64(nil), a...)
		lz := append([]uint64(nil), a...)
		tbl.Inverse(ref)
		tbl.InverseLazy(lz)
		for i := range ref {
			if ref[i] != lz[i] {
				t.Fatalf("N=%d q=%d: lazy inverse differs at %d: %d vs %d",
					cfg.n, cfg.q, i, lz[i], ref[i])
			}
		}
	}
}

// Property: lazy and strict inverse transforms agree on arbitrary inputs
// (any canonical vector is a legal evaluation vector — the transform pair
// is a bijection on [0, q)^N).
func TestInverseLazyQuick(t *testing.T) {
	tbl := MustTable(256, 7681)
	f := func(seed int64) bool {
		a := randPoly(256, tbl.Mod.Q, seed)
		b := append([]uint64(nil), a...)
		tbl.Inverse(a)
		tbl.InverseLazy(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Error(err)
	}
}

// The lazy round trip composes: ForwardLazy then InverseLazy restores the
// input exactly (both kernels normalize canonically at their boundary).
func TestLazyRoundTripIdentity(t *testing.T) {
	for _, cfg := range testCfgs {
		tbl := MustTable(cfg.n, cfg.q)
		a := randPoly(cfg.n, cfg.q, 11)
		want := append([]uint64(nil), a...)
		tbl.ForwardLazy(a)
		tbl.InverseLazy(a)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("N=%d q=%d: lazy round trip differs at %d", cfg.n, cfg.q, i)
			}
		}
	}
}

func BenchmarkNTTInverse65536(b *testing.B) {
	tbl := MustTable(65536, 68718428161)
	a := randPoly(65536, tbl.Mod.Q, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Inverse(a)
	}
}
