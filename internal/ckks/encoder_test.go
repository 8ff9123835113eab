package ckks

import (
	"math"
	"math/big"
	"testing"
)

// bigEncode is encodeCoeff's oracle: round(v·2^logScale) to the nearest
// integer (halves away from zero, as the mantissa shift rounds its
// magnitude) and its residue mod q, in big integers.
func bigEncode(v float64, logScale int, q uint64) uint64 {
	x := new(big.Float).SetPrec(0).SetFloat64(math.Abs(v)) // exact: a float64
	x.SetMantExp(x, logScale)
	x.Add(x, big.NewFloat(0.5))
	n, _ := x.Int(nil) // truncation = floor for non-negative x
	if v < 0 {
		n.Neg(n)
	}
	return n.Mod(n, new(big.Int).SetUint64(q)).Uint64()
}

// TestEncodeCoeffMatchesBigInt: the Barrett Expand-RNS residue equals the
// big-integer one on the edges of the float→RNS map — zero, subnormals,
// ±2^-60 on both sides of the rounding point, integers around 2^53, and
// exponents up to maxPow2−1 — on every Q limb and every P limb.
func TestEncodeCoeffMatchesBigInt(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	moduli := append(append([]uint64(nil), p.qPrimes...), p.specials...)
	if len(p.specials) == 0 {
		t.Fatal("test parameters carry no special primes")
	}
	below1 := math.Nextafter(1, 0)
	cases := []struct {
		v        float64
		logScale int
	}{
		{0, 30}, {math.Copysign(0, -1), 30},
		{math.SmallestNonzeroFloat64, 30}, {-math.SmallestNonzeroFloat64, 100},
		{0x1p-1030, 60}, // subnormal
		{0x1p-60, 60}, {-0x1p-60, 60}, {0x1p-60, 59}, {-0x1p-60, 59}, {0x1p-60, 58}, {0x1p-60, 61},
		{0x1p-60 * 3, 58}, {-0x1p-60 * 3, 59},
		{0x1p53 - 1, 1}, {0x1p53, 1}, {0x1p53 + 2, 1}, {-(0x1p53 - 1), 1}, {-0x1p53, 1},
		{0x1p53 - 1, 0x3b}, {math.Nextafter(0x1p53, 0), 100},
		{0.75 * 0x1p152, 60}, {-below1 * 0x1p152, 60}, // e = maxPow2−1
		{below1 * 0x1p99, 113}, {-0.5 * 0x1p99, 113},
		{math.Pi, 30}, {-math.E, 66}, {1e-9, 30}, {-1e-9, 31},
	}
	for _, c := range cases {
		q := make([][]uint64, len(p.qPrimes))
		pp := make([][]uint64, len(p.specials))
		for i := range q {
			q[i] = []uint64{^uint64(0)}
		}
		for i := range pp {
			pp[i] = []uint64{^uint64(0)}
		}
		enc.encodeCoeff(c.v, 0, c.logScale, q, pp)
		for i, m := range moduli {
			got := q
			row := i
			if i >= len(p.qPrimes) {
				got, row = pp, i-len(p.qPrimes)
			}
			if want := bigEncode(c.v, c.logScale, m); got[row][0] != want {
				t.Errorf("v=%g logScale=%d prime %d (%d): %d, big.Int %d", c.v, c.logScale, i, m, got[row][0], want)
			}
		}
	}
}

// TestMulPow2PastTable: exponents at and past the table's end step through
// it and still land on m·2^e mod q.
func TestMulPow2PastTable(t *testing.T) {
	for i, tab := range testParams.pow2 {
		q := new(big.Int).SetUint64(tab.m.Q)
		for _, m := range []uint64{1, 3, 1<<53 + 1, ^uint64(0)} {
			for _, e := range []int{0, maxPow2 - 1, maxPow2, 2*maxPow2 + 7, 1100} {
				want := new(big.Int).Lsh(new(big.Int).SetUint64(m), uint(e))
				want.Mod(want, q)
				if got := tab.mulPow2(m, e, false); got != want.Uint64() {
					t.Fatalf("prime %d: %d·2^%d = %d, want %d", i, m, e, got, want)
				}
				neg := new(big.Int).Sub(q, want)
				neg.Mod(neg, q)
				if got := tab.mulPow2(m, e, true); got != neg.Uint64() {
					t.Fatalf("prime %d: −%d·2^%d = %d, want %d", i, m, e, got, neg)
				}
			}
		}
	}
}
