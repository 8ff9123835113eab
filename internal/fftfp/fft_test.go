package fftfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func fullCtx() Ctx { return NewCtx(Float64Mantissa) }

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit (the fuzz targets own exploration).
func quickConfig(t *testing.T) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(seed))}
}

func TestRoundMantissa(t *testing.T) {
	cases := []struct {
		x    float64
		mant int
		want float64
	}{
		{1.0, 10, 1.0},                           // exact values unchanged
		{1.5, 1, 1.5},                            // 1.5 = 1.1b needs exactly 1 bit
		{1.25, 1, 1.0},                           // 1.01b → round to even → 1.0
		{1.75, 1, 2.0},                           // 1.11b → 10.0b
		{-1.75, 1, -2.0},                         // sign symmetric
		{0, 5, 0},                                // zero passes
		{math.Inf(1), 5, math.Inf(1)},            // inf passes
		{-math.MaxFloat64, 10, -math.MaxFloat64}, // -1.797…e308: the carry would reach exponent 0x7FF — saturates
		{3.141592653589793, 52, math.Pi},         // full width is identity
	}
	for _, c := range cases {
		if got := RoundMantissa(c.x, c.mant); got != c.want {
			t.Errorf("RoundMantissa(%v,%d)=%v want %v", c.x, c.mant, got, c.want)
		}
	}
}

// Property: rounding error is bounded by half an ulp at the target width.
func TestRoundMantissaErrorBoundQuick(t *testing.T) {
	f := func(x float64, m uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return true
		}
		mant := int(m%40) + 10 // widths 10..49
		r := RoundMantissa(x, mant)
		relErr := math.Abs(r-x) / math.Abs(x)
		return relErr <= math.Pow(2, -float64(mant)) // ≤ 2^-mant (half-ulp is 2^-(mant+1), margin 2×)
	}
	if err := quick.Check(f, quickConfig(t)); err != nil {
		t.Error(err)
	}
}

// Property: RoundMantissa is idempotent.
func TestRoundMantissaIdempotentQuick(t *testing.T) {
	f := func(x float64, m uint8) bool {
		if math.IsNaN(x) {
			return true
		}
		mant := int(m%40) + 10
		r := RoundMantissa(x, mant)
		return RoundMantissa(r, mant) == r
	}
	if err := quick.Check(f, quickConfig(t)); err != nil {
		t.Error(err)
	}
}

func TestFFTMatchesNaive(t *testing.T) {
	for _, logN := range []int{3, 4, 6, 8} {
		e := NewEmbedder(logN)
		vals := make([]Complex, e.Slots)
		for i := range vals {
			vals[i] = Complex{float64(i%5) - 2, float64((3*i)%7) - 3}
		}
		want := e.EvalNaive(vals)
		got := append([]Complex(nil), vals...)
		e.FFT(got, fullCtx())
		for i := range got {
			if d := (Complex{got[i].Re - want[i].Re, got[i].Im - want[i].Im}).Abs(); d > 1e-9*float64(e.Slots) {
				t.Fatalf("logN=%d: FFT differs from naive at %d by %g", logN, i, d)
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, logN := range []int{3, 5, 8, 10} {
		e := NewEmbedder(logN)
		msg := randomMessage(e, 7)
		vals := append([]Complex(nil), msg...)
		e.IFFT(vals, fullCtx())
		e.FFT(vals, fullCtx())
		for i := range vals {
			if d := (Complex{vals[i].Re - msg[i].Re, vals[i].Im - msg[i].Im}).Abs(); d > 1e-8 {
				t.Fatalf("logN=%d: FFT∘IFFT ≠ id at %d (err %g)", logN, i, d)
			}
		}
	}
}

func TestEncodeDecodeCoeffs(t *testing.T) {
	e := NewEmbedder(8)
	msg := randomMessage(e, 11)
	coeffs := e.EncodeToCoeffs(msg, fullCtx())
	if len(coeffs) != e.N {
		t.Fatalf("coefficient count %d", len(coeffs))
	}
	got := e.DecodeFromCoeffs(coeffs, fullCtx())
	for i := range got {
		if d := (Complex{got[i].Re - msg[i].Re, got[i].Im - msg[i].Im}).Abs(); d > 1e-8 {
			t.Fatalf("encode/decode round trip error %g at %d", d, i)
		}
	}
}

// The canonical embedding of a *real constant* polynomial is that constant
// in every slot — a structural sanity check of the 5^j indexing.
func TestConstantPolynomial(t *testing.T) {
	e := NewEmbedder(6)
	coeffs := make([]float64, e.N)
	coeffs[0] = 2.5
	got := e.DecodeFromCoeffs(coeffs, fullCtx())
	for i, v := range got {
		if math.Abs(v.Re-2.5) > 1e-10 || math.Abs(v.Im) > 1e-10 {
			t.Fatalf("slot %d = %v, want 2.5", i, v)
		}
	}
}

func TestPrecisionMonotonicIncrease(t *testing.T) {
	e := NewEmbedder(10)
	prev := -1e9
	for _, m := range []int{20, 28, 36, 44, 52} {
		r := RoundTripPrecision(e, m, 3)
		if r.Bits < prev-1.5 { // allow small noise, but the trend must rise
			t.Fatalf("precision decreased: mant %d → %.2f bits (prev %.2f)", m, r.Bits, prev)
		}
		prev = r.Bits
	}
}

func TestPrecisionSlopeNearOne(t *testing.T) {
	// Between mantissa 24 and 44 the precision should rise ≈ 1 bit per
	// mantissa bit (Fig. 3c's linear region).
	e := NewEmbedder(10)
	r1 := RoundTripPrecision(e, 24, 5)
	r2 := RoundTripPrecision(e, 44, 5)
	slope := (r2.Bits - r1.Bits) / 20
	if slope < 0.8 || slope > 1.2 {
		t.Fatalf("precision slope %.2f, want ≈ 1", slope)
	}
}

func TestBootProxyBelowRoundTrip(t *testing.T) {
	// The bootstrap shadow compounds more reduced-precision operations, so
	// its precision must not exceed the pure round trip by more than noise.
	e := NewEmbedder(10)
	for _, m := range []int{30, 43} {
		rt := RoundTripPrecision(e, m, 9)
		bp := BootPrecisionProxy(e, m, 9)
		if bp.Bits > rt.Bits+3 {
			t.Fatalf("mant %d: boot proxy %.2f implausibly above round trip %.2f",
				m, bp.Bits, rt.Bits)
		}
	}
}

func TestDropOffPoint(t *testing.T) {
	rs := []PrecisionResult{{30, 10, 9}, {31, 18, 17}, {32, 21, 20}}
	if got := DropOffPoint(rs, 19.29); got != 32 {
		t.Fatalf("DropOffPoint = %d, want 32", got)
	}
	if got := DropOffPoint(rs, 50); got != -1 {
		t.Fatalf("DropOffPoint = %d, want -1", got)
	}
}

func TestSweepShape(t *testing.T) {
	e := NewEmbedder(9)
	rs := Sweep(e, 25, 30, "roundtrip", 1)
	if len(rs) != 6 {
		t.Fatalf("sweep length %d", len(rs))
	}
	for i, r := range rs {
		if r.MantissaBits != 25+i {
			t.Fatal("sweep mantissa ordering broken")
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	e := NewEmbedder(11) // slots = 1024
	vals := randomMessage(e, 1)
	ctx := fullCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FFT(vals, ctx)
	}
}

func BenchmarkFFT1024FP55(b *testing.B) {
	e := NewEmbedder(11)
	vals := randomMessage(e, 1)
	ctx := NewCtx(FP55Mantissa)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FFT(vals, ctx)
	}
}

func TestDecodeFromCoeffsInto(t *testing.T) {
	e := NewEmbedder(6)
	msg := make([]Complex, e.Slots)
	for i := range msg {
		msg[i] = Complex{Re: float64(i%5) - 2, Im: float64(i%3) - 1}
	}
	coeffs := e.EncodeToCoeffs(msg, fullCtx())
	want := e.DecodeFromCoeffs(coeffs, fullCtx())

	vals := GetSlotSlab(e.Slots)
	got := e.DecodeFromCoeffsInto(coeffs, vals, fullCtx())
	if &got[0] != &vals[0] {
		t.Fatal("Into variant must write into the provided buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: Into %v != alloc %v", i, got[i], want[i])
		}
	}
	PutSlotSlab(vals)

	// Dirty recycled slabs must not affect results.
	dirty := GetSlotSlab(e.Slots)
	for i := range dirty {
		dirty[i] = Complex{Re: 1e300, Im: -1e300}
	}
	again := e.DecodeFromCoeffsInto(coeffs, dirty, fullCtx())
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("slot %d differs on dirty slab reuse", i)
		}
	}
	PutSlotSlab(dirty)
	PutSlotSlab(nil) // no-op

	defer func() {
		if recover() == nil {
			t.Fatal("mis-sized slot buffer must panic")
		}
	}()
	e.DecodeFromCoeffsInto(coeffs, make([]Complex, e.Slots-1), fullCtx())
}
