package rns

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/primes"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func smallBasis() *Basis { return MustBasis([]uint64{97, 193, 257}) }
func paperBasis() *Basis { return MustBasis(primes.GenerateNTTPrimes(24, 36, 16)) }

func TestBasisConstants(t *testing.T) {
	b := smallBasis()
	wantQ := big.NewInt(97 * 193 * 257)
	if b.Q.Cmp(wantQ) != 0 {
		t.Fatalf("Q = %v want %v", b.Q, wantQ)
	}
	if b.K() != 3 {
		t.Fatal("limb count")
	}
	// CRT identity: Σ qiHat·qiHatInv ≡ 1 mod Q.
	acc := new(big.Int)
	for i := range b.Moduli {
		term := new(big.Int).SetUint64(b.qiHatInv[i])
		term.Mul(term, b.qiHat[i])
		acc.Add(acc, term)
	}
	acc.Mod(acc, b.Q)
	if acc.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("CRT identity violated: %v", acc)
	}
}

func TestExpandCombineInt64(t *testing.T) {
	b := smallBasis()
	limbs := make([]uint64, b.K())
	for _, v := range []int64{0, 1, -1, 42, -42, 1000000, -999983, 2405216, -2405216} {
		b.ExpandInt64(v, limbs)
		got := b.CombineCentered(limbs)
		if got.Int64() != v {
			t.Fatalf("round trip %d → %v", v, got)
		}
	}
}

func TestExpandCombineBig(t *testing.T) {
	b := paperBasis()
	limbs := make([]uint64, b.K())
	rng := rand.New(rand.NewSource(1))
	// Values up to ~Q/4 in magnitude (double-scale coefficients ≈ 2^72·m
	// easily fit the 24-limb 36-bit basis of ~2^864).
	for i := 0; i < 50; i++ {
		v := new(big.Int).Rand(rng, new(big.Int).Rsh(b.Q, 2))
		if i%2 == 1 {
			v.Neg(v)
		}
		b.ExpandBig(v, limbs)
		got := b.CombineCentered(limbs)
		if got.Cmp(v) != 0 {
			t.Fatalf("big round trip failed: %v → %v", v, got)
		}
	}
}

func TestCenteredRange(t *testing.T) {
	b := smallBasis()
	limbs := make([]uint64, b.K())
	rng := rand.New(rand.NewSource(2))
	half := new(big.Int).Rsh(b.Q, 1)
	negHalf := new(big.Int).Neg(half)
	for i := 0; i < 500; i++ {
		for j, m := range b.Moduli {
			limbs[j] = rng.Uint64() % m.Q
		}
		v := b.CombineCentered(limbs)
		if v.Cmp(half) > 0 || v.Cmp(negHalf) < 0 {
			t.Fatalf("centered value %v outside (-Q/2, Q/2]", v)
		}
		// And it must reduce back to the same residues.
		back := make([]uint64, b.K())
		b.ExpandBig(v, back)
		for j := range limbs {
			if back[j] != limbs[j] {
				t.Fatalf("residue %d mismatch after reconstruct", j)
			}
		}
	}
}

// Property: expansion is a ring homomorphism — limbs of (x+y) equal
// limb-wise sums.
func TestExpandHomomorphismQuick(t *testing.T) {
	b := smallBasis()
	f := func(x, y int32) bool {
		lx := make([]uint64, b.K())
		ly := make([]uint64, b.K())
		ls := make([]uint64, b.K())
		b.ExpandInt64(int64(x), lx)
		b.ExpandInt64(int64(y), ly)
		b.ExpandInt64(int64(x)+int64(y), ls)
		for i, m := range b.Moduli {
			if m.Add(lx[i], ly[i]) != ls[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestSubBasis(t *testing.T) {
	b := paperBasis()
	s := b.Sub(2)
	if s.K() != 2 {
		t.Fatal("sub-basis size")
	}
	if s.Primes()[0] != b.Primes()[0] || s.Primes()[1] != b.Primes()[1] {
		t.Fatal("sub-basis must be a prefix")
	}
	// A value small enough for the sub-basis round-trips through it.
	limbs := make([]uint64, 2)
	v := big.NewInt(1 << 40)
	s.ExpandBig(v, limbs)
	if s.CombineCentered(limbs).Cmp(v) != 0 {
		t.Fatal("sub-basis round trip failed")
	}
}

func TestCombineCenteredFloat(t *testing.T) {
	b := smallBasis()
	limbs := make([]uint64, b.K())
	b.ExpandInt64(123456, limbs)
	got := b.CombineCenteredFloat(limbs, 1024.0)
	want := 123456.0 / 1024.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("float combine %v want %v", got, want)
	}
}

func TestNewBasisErrors(t *testing.T) {
	if _, err := NewBasis(nil); err == nil {
		t.Fatal("empty basis must error")
	}
	if _, err := NewBasis([]uint64{97, 97}); err == nil {
		t.Fatal("duplicate modulus must error")
	}
}

func BenchmarkCombineCentered24(b *testing.B) {
	basis := paperBasis()
	limbs := make([]uint64, basis.K())
	basis.ExpandInt64(1234567891011, limbs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis.CombineCentered(limbs)
	}
}

func BenchmarkExpandBig24(b *testing.B) {
	basis := paperBasis()
	limbs := make([]uint64, basis.K())
	v := new(big.Int).Lsh(big.NewInt(987654321), 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis.ExpandBig(v, limbs)
	}
}
