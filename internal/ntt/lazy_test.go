package ntt

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/primes"
)

// prime62 is the largest prime below 2^62 that is ≡ 1 mod 2^17, so it hosts
// every ring degree up to 2^16 at the top of the width mod accepts.
func prime62() uint64 {
	const step = 1 << 17
	for q := uint64(1)<<62 - step + 1; ; q -= step {
		if primes.IsPrime(q) {
			return q
		}
	}
}

// TestLazyMatchesReferenceEverySize: the radix-4 Shoup kernels equal the
// radix-2 Montgomery reference at every log N from 1 to 16 — odd and even
// stage counts, so both closings and the radix-2 sweep run — on 36-, 50-,
// 61- and 62-bit primes, for random, all-(q − 1) and all-zero rows.
func TestLazyMatchesReferenceEverySize(t *testing.T) {
	const seed = 0x26A4
	t.Logf("row seed %#x", seed)
	rng := rand.New(rand.NewSource(seed))
	qs := []uint64{
		primes.GenerateNTTPrimes(1, 36, 16)[0],
		primes.GenerateNTTPrimes(1, 50, 16)[0],
		primes.GenerateNTTPrimes(1, 61, 16)[0],
		prime62(),
	}
	for _, q := range qs {
		for logN := 1; logN <= 16; logN++ {
			n := 1 << logN
			tbl := MustTable(n, q)
			random, top, zero := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for i := range random {
				random[i], top[i] = rng.Uint64()%q, q-1
			}
			for _, row := range [][]uint64{random, top, zero} {
				for _, k := range []struct {
					name      string
					ref, lazy func([]uint64)
				}{
					{"forward", tbl.Forward, tbl.ForwardLazy},
					{"inverse", tbl.Inverse, tbl.InverseLazy},
				} {
					want := append([]uint64(nil), row...)
					got := append([]uint64(nil), row...)
					k.ref(want)
					k.lazy(got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("q=%d N=%d row[0]=%d %s: lazy %d, reference %d at %d",
								q, n, row[0], k.name, got[i], want[i], i)
						}
					}
				}
			}
		}
	}
}

// TestTwiddleTable: W holds ψ^{brev(i)}, WShoup its exact Shoup companion
// ⌊W[i]·2^64/q⌋, and the inverse's mirror −W[2h−1−i] is ψ^{-brev(h+i)} for
// every stage h and group i (square-and-multiply powers of PsiInv).
func TestTwiddleTable(t *testing.T) {
	tbl := MustTable(1<<10, primes.GenerateNTTPrimes(1, 61, 10)[0])
	m := tbl.Mod
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	bq := new(big.Int).SetUint64(m.Q)
	for i, w := range tbl.W {
		if want := m.Pow(tbl.Psi, uint64(brev(uint(i), tbl.LogN))); w != want {
			t.Fatalf("W[%d] = %d, want ψ^brev = %d", i, w, want)
		}
		want := new(big.Int).Mul(new(big.Int).SetUint64(w), two64)
		if want.Quo(want, bq); tbl.WShoup[i] != want.Uint64() || !want.IsUint64() {
			t.Fatalf("WShoup[%d] = %d, want %v", i, tbl.WShoup[i], want)
		}
	}
	for h := 1; h < tbl.N; h <<= 1 {
		for i := 0; i < h; i++ {
			want := m.Pow(tbl.PsiInv, uint64(brev(uint(h+i), tbl.LogN)))
			if got := m.Neg(tbl.W[2*h-1-i]); got != want {
				t.Fatalf("h=%d i=%d: −W[2h−1−i] = %d, want ψ^{-brev(h+i)} = %d", h, i, got, want)
			}
		}
	}
}

// TestTableTwiddleFootprint pins the table memory: a built Table holds
// exactly two N-word slices (W and WShoup), the same 2N words per prime as
// the forward/inverse Montgomery pair it replaced.
func TestTableTwiddleFootprint(t *testing.T) {
	tbl := MustTable(1<<12, 68718428161)
	v := reflect.ValueOf(tbl).Elem()
	slices, words := 0, 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			slices++
			words += f.Len()
		}
	}
	if slices != 2 || words != 2*tbl.N {
		t.Fatalf("Table holds %d slices of %d words in total, want 2 of %d", slices, words, 2*tbl.N)
	}
}

// TestNewTableRejects: every invalid (N, q) is an error, never a panic —
// including the moduli mod.NewModulus itself would panic on.
func TestNewTableRejects(t *testing.T) {
	for _, c := range []struct {
		n int
		q uint64
	}{
		{0, 97}, {-4, 97}, {1, 97}, {12, 97}, // N not a power of two ≥ 2
		{8, 0}, {2, 1}, {8, 2}, {8, 96}, // q < 3 or even
		{8, 89},                        // q ≢ 1 mod 2N
		{8, 1<<62 + 1}, {8, 1<<63 + 1}, // q ≥ 2^62
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("NewTable(%d, %d) panicked: %v", c.n, c.q, r)
				}
			}()
			if tbl, err := NewTable(c.n, c.q); err == nil || tbl != nil {
				t.Errorf("NewTable(%d, %d) = %v, %v; want an error", c.n, c.q, tbl, err)
			}
		}()
	}
}
