package mod

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// testPrimes covers the widths used across the repository: a tiny prime, a
// 36-bit CKKS limb prime (q ≡ 1 mod 2^17), and primes near the 62-bit cap.
var testPrimes = []uint64{
	17,
	97,
	7681,                // 13-bit NTT prime (q ≡ 1 mod 2^9)
	65537,               // Fermat prime
	0xFFFF00001,         // 36-bit NTT prime q ≡ 1 mod 2^17 (68718428161)
	1152921504606584833, // 60-bit NTT prime
	4611686018425815041, // 62-bit NTT prime
}

func bigMulMod(a, b, q uint64) uint64 {
	A := new(big.Int).SetUint64(a)
	B := new(big.Int).SetUint64(b)
	Q := new(big.Int).SetUint64(q)
	A.Mul(A, B).Mod(A, Q)
	return A.Uint64()
}

func TestNewModulusConstants(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		// QInv: q * (-QInv) ≡ 1 mod 2^64  ⇔  q*QInv ≡ -1 mod 2^64.
		if q*m.QInv != ^uint64(0) {
			t.Errorf("q=%d: QInv incorrect", q)
		}
		// ROne = 2^64 mod q.
		r := new(big.Int).Lsh(big.NewInt(1), 64)
		r.Mod(r, new(big.Int).SetUint64(q))
		if m.ROne != r.Uint64() {
			t.Errorf("q=%d: ROne=%d want %d", q, m.ROne, r.Uint64())
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range testPrimes {
		m := NewModulus(q)
		for i := 0; i < 500; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			want := bigMulMod(a, b, q)
			if got := m.Mul(a, b); got != want {
				t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got := m.BarrettMul(a, b); got != want {
				t.Fatalf("q=%d BarrettMul(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

func TestMontgomeryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testPrimes {
		m := NewModulus(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			if got := m.IForm(m.MForm(a)); got != a {
				t.Fatalf("q=%d: IForm(MForm(%d))=%d", q, a, got)
			}
			b := rng.Uint64() % q
			// MRedMul(a, MForm(b)) == a*b mod q
			if got, want := m.MRedMul(a, m.MForm(b)), m.Mul(a, b); got != want {
				t.Fatalf("q=%d: M-domain mul mismatch got %d want %d", q, got, want)
			}
		}
	}
}

func TestAddSubNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range testPrimes {
		m := NewModulus(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := m.Add(a, b), (a+b)%q; got != want {
				t.Fatalf("Add mismatch")
			}
			if got, want := m.Sub(a, b), (a+q-b)%q; got != want {
				t.Fatalf("Sub mismatch")
			}
			if got := m.Add(a, m.Neg(a)); got != 0 {
				t.Fatalf("a + (-a) = %d != 0", got)
			}
		}
	}
}

func TestPowInv(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(int64(q)))
		for i := 0; i < 50; i++ {
			a := 1 + rng.Uint64()%(q-1)
			inv := m.Inv(a)
			if m.Mul(a, inv) != 1 {
				t.Fatalf("q=%d: a * a^-1 != 1 for a=%d", q, a)
			}
		}
		// Fermat: a^(q-1) = 1.
		if m.Pow(5%q, q-1) != 1 && q > 5 {
			t.Fatalf("q=%d: Fermat check failed", q)
		}
	}
}

func TestCentered(t *testing.T) {
	m := NewModulus(97)
	cases := []struct {
		in   uint64
		want int64
	}{{0, 0}, {1, 1}, {48, 48}, {49, -48}, {96, -1}}
	for _, c := range cases {
		if got := m.Centered(c.in); got != c.want {
			t.Errorf("Centered(%d)=%d want %d", c.in, got, c.want)
		}
		if back := m.FromCentered(c.want); back != c.in {
			t.Errorf("FromCentered(%d)=%d want %d", c.want, back, c.in)
		}
	}
}

func TestPrimitiveRootOfUnity(t *testing.T) {
	// 7681 - 1 = 2^9 * 15: supports orders up to 512.
	m := NewModulus(7681)
	for _, order := range []uint64{2, 4, 8, 256, 512} {
		psi, err := m.PrimitiveRootOfUnity(order)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if m.Pow(psi, order) != 1 {
			t.Fatalf("psi^order != 1")
		}
		if m.Pow(psi, order/2) != m.Q-1 {
			t.Fatalf("psi^(order/2) != -1: order not exact")
		}
	}
	if _, err := m.PrimitiveRootOfUnity(1024); err == nil {
		t.Fatal("expected error: 1024 does not divide 7680")
	}
	if _, err := m.PrimitiveRootOfUnity(3); err == nil {
		t.Fatal("expected error: order not a power of two")
	}
}

func TestMinimalPrimitiveRoot(t *testing.T) {
	m := NewModulus(7681)
	minRoot, err := m.MinimalPrimitiveRoot(512)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check that nothing smaller has exact order 512.
	for x := uint64(2); x < minRoot; x++ {
		if m.Pow(x, 512) == 1 && m.Pow(x, 256) == m.Q-1 {
			t.Fatalf("found smaller primitive root %d < %d", x, minRoot)
		}
	}
	if m.Pow(minRoot, 256) != m.Q-1 {
		t.Fatal("returned root does not have exact order")
	}
}

// Property: Montgomery, Barrett and division-based multiplication agree on
// arbitrary residues (quick-checked over random uint64 pairs).
func TestMulStrategiesAgreeQuick(t *testing.T) {
	m := NewModulus(0xFFFF00001)
	f := func(a, b uint64) bool {
		a %= m.Q
		b %= m.Q
		ref := m.Mul(a, b)
		return m.BarrettMul(a, b) == ref && m.MRedMul(a, m.MForm(b)) == ref
	}
	if err := quick.Check(f, quickConfig(t, 2000)); err != nil {
		t.Error(err)
	}
}

// TestReduce128LazySums: the inlinable reduction with the dropped partial
// product agrees with the method and with hardware division over its whole
// domain [0, q·2^64) — random values, the domain's top edge, and the
// largest LazyTerms-long sum of products, at 36-, 61- and 62-bit moduli.
func TestReduce128LazySums(t *testing.T) {
	rng := rand.New(rand.NewSource(0xABCF))
	for _, q := range []uint64{0xFFFF00001, 1<<61 - 1, 1<<62 - 57, 3} {
		m := NewModulus(q)
		check := func(hi, lo uint64) {
			t.Helper()
			_, want := bits.Div64(hi, lo, q)
			if got := Reduce128(hi, lo, q, m.BHi, m.BLo); got != want || m.BarrettReduce128(hi, lo) != want {
				t.Fatalf("q=%d hi=%d lo=%d: Reduce128 %d, method %d, division %d", q, hi, lo, got, m.BarrettReduce128(hi, lo), want)
			}
		}
		for i := 0; i < 20000; i++ {
			check(rng.Uint64()%q, rng.Uint64())
		}
		check(q-1, ^uint64(0))
		check(0, 0)
		var hi, lo uint64
		for i := 0; i < LazyTerms; i++ {
			hi, lo = MulAdd128(hi, lo, q-1, q-1)
		}
		if hi >= q {
			t.Fatalf("q=%d: %d products of q−1 leave the reduction's domain", q, LazyTerms)
		}
		check(hi, lo)
	}
}

// TestMulShoupLazy: the Shoup product lands in [0, 2q) on the residue of
// w·y for any 64-bit y — the top edge 2^64 − 1, w ∈ {0, 1, q − 1} and
// random operands — at 36-, 61- and 62-bit moduli, against Mul.
func TestMulShoupLazy(t *testing.T) {
	const seed = 0x5400F
	t.Logf("operand seed %#x", seed)
	rng := rand.New(rand.NewSource(seed))
	for _, q := range []uint64{0xFFFF00001, 1<<61 - 1, 1<<62 - 57} {
		m := NewModulus(q)
		check := func(y, w uint64) {
			t.Helper()
			got := MulShoupLazy(y, w, ShoupConst(w, q), q)
			if want := m.Mul(w, y%q); got >= 2*q || got%q != want {
				t.Fatalf("q=%d y=%d w=%d: MulShoupLazy %d, want %d mod q below 2q", q, y, w, got, want)
			}
		}
		for _, w := range []uint64{0, 1, q - 1} {
			for _, y := range []uint64{0, 1, q - 1, 4*q - 1, ^uint64(0)} {
				check(y, w)
			}
		}
		for i := 0; i < 20000; i++ {
			check(rng.Uint64(), rng.Uint64()%q)
		}
	}
}

// Property: modular ring axioms — distributivity and associativity.
func TestRingAxiomsQuick(t *testing.T) {
	m := NewModulus(1152921504606584833)
	distrib := func(a, b, c uint64) bool {
		a, b, c = a%m.Q, b%m.Q, c%m.Q
		left := m.Mul(a, m.Add(b, c))
		right := m.Add(m.Mul(a, b), m.Mul(a, c))
		return left == right
	}
	if err := quick.Check(distrib, quickConfig(t, 1000)); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	assoc := func(a, b, c uint64) bool {
		a, b, c = a%m.Q, b%m.Q, c%m.Q
		return m.Mul(a, m.Mul(b, c)) == m.Mul(m.Mul(a, b), c)
	}
	if err := quick.Check(assoc, quickConfig(t, 1000)); err != nil {
		t.Errorf("associativity: %v", err)
	}
}

func BenchmarkMulDiv(b *testing.B) {
	m := NewModulus(0xFFFF00001)
	x, y := uint64(123456789), uint64(987654321)
	for i := 0; i < b.N; i++ {
		x = m.Mul(x, y)
	}
	_ = x
}

func BenchmarkMulBarrett(b *testing.B) {
	m := NewModulus(0xFFFF00001)
	x, y := uint64(123456789), uint64(987654321)
	for i := 0; i < b.N; i++ {
		x = m.BarrettMul(x, y)
	}
	_ = x
}

func BenchmarkMulMontgomery(b *testing.B) {
	m := NewModulus(0xFFFF00001)
	x := uint64(123456789)
	y := m.MForm(987654321)
	for i := 0; i < b.N; i++ {
		x = m.MRedMul(x, y)
	}
	_ = x
}
