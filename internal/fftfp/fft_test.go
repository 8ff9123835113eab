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

// refFFT and refIFFT are the special FFT as first written: every butterfly
// computes its twiddle's master-table index from the rotation group. They
// are the oracle the stage-ordered tables are held to, bit for bit.
func refFFT(e *Embedder, vals []Complex, ctx Ctx) {
	rotGroup, ksi := powersOfFive(e.Slots, e.M), rootsOfUnity(e.M)
	bitReverseC(vals)
	size := e.Slots
	for length := 2; length <= size; length <<= 1 {
		lenh, lenq := length>>1, length<<2
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				idx := (rotGroup[j] % lenq) * (e.M / lenq)
				u := vals[i+j]
				v := ctx.Mul(vals[i+j+lenh], ctx.RoundC(ksi[idx]))
				vals[i+j] = ctx.Add(u, v)
				vals[i+j+lenh] = ctx.Sub(u, v)
			}
		}
	}
}

func refIFFT(e *Embedder, vals []Complex, ctx Ctx) {
	rotGroup, ksi := powersOfFive(e.Slots, e.M), rootsOfUnity(e.M)
	size := e.Slots
	for length := size; length >= 2; length >>= 1 {
		lenh, lenq := length>>1, length<<2
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - (rotGroup[j] % lenq)) * (e.M / lenq)
				u := ctx.Add(vals[i+j], vals[i+j+lenh])
				v := ctx.Mul(ctx.Sub(vals[i+j], vals[i+j+lenh]), ctx.RoundC(ksi[idx]))
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	inv := 1 / float64(size)
	for i := range vals {
		vals[i] = ctx.Scale(vals[i], inv)
	}
	bitReverseC(vals)
}

// sameBits reports the first index where a and b differ in any bit
// (-0 ≠ +0, and a NaN equals only the same NaN payload), or -1.
func sameBits(a, b []Complex) int {
	for i := range a {
		if math.Float64bits(a[i].Re) != math.Float64bits(b[i].Re) ||
			math.Float64bits(a[i].Im) != math.Float64bits(b[i].Im) {
			return i
		}
	}
	return -1
}

// TestFFTMatchesReferenceBits: the table-driven transforms emit the same
// bits as the index-computing reference at every ring degree and at the
// mantissa widths the precision sweep and the FP55 datapath use.
func TestFFTMatchesReferenceBits(t *testing.T) {
	maxLogN := 16
	if testing.Short() {
		maxLogN = 12
	}
	for logN := 2; logN <= maxLogN; logN++ {
		e := NewEmbedder(logN)
		msg := randomMessage(e, uint64(logN))
		for _, mant := range []int{20, 37, FP55Mantissa, Float64Mantissa} {
			ctx := NewCtx(mant)
			for _, dir := range []struct {
				name     string
				got, ref func([]Complex, Ctx)
			}{
				{"FFT", e.FFT, func(v []Complex, c Ctx) { refFFT(e, v, c) }},
				{"IFFT", e.IFFT, func(v []Complex, c Ctx) { refIFFT(e, v, c) }},
			} {
				got := append([]Complex(nil), msg...)
				want := append([]Complex(nil), msg...)
				dir.got(got, ctx)
				dir.ref(want, ctx)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("logN=%d mant=%d %s: slot %d = %v, reference %v",
						logN, mant, dir.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDFTStageMatchesReferenceIndex: every butterfly stage matrix carries
// exactly the master-table twiddle the reference index form names.
func TestDFTStageMatchesReferenceIndex(t *testing.T) {
	for _, logN := range []int{2, 3, 6, 9} {
		e := NewEmbedder(logN)
		rotGroup, ksi := powersOfFive(e.Slots, e.M), rootsOfUnity(e.M)
		n := e.Slots
		for length := 2; length <= n; length <<= 1 {
			lenh, lenq := length>>1, length<<2
			for _, inverse := range []bool{false, true} {
				m := e.dftStage(length, inverse)
				for i := 0; i < n; i += length {
					for j := 0; j < lenh; j++ {
						var idx int
						if inverse {
							idx = (lenq - (rotGroup[j] % lenq)) * (e.M / lenq)
						} else {
							idx = (rotGroup[j] % lenq) * (e.M / lenq)
						}
						w := complex(ksi[idx].Re, ksi[idx].Im)
						// The pp row's own-slot entry is −w (scaled by ½ inverse).
						got := -m.Diags[0][i+j+lenh]
						if inverse {
							got *= 2
						}
						if got != w {
							t.Fatalf("logN=%d length=%d inverse=%v j=%d: twiddle %v, reference %v",
								logN, length, inverse, j, got, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkEmbedder times the special FFT and IFFT at N = 2^16 (32768
// slots), full float64 precision: one of each runs per client operation.
func BenchmarkEmbedder(b *testing.B) {
	e := NewEmbedder(16)
	msg := randomMessage(e, 1)
	vals := make([]Complex, e.Slots)
	ctx := fullCtx()
	for _, dir := range []struct {
		name string
		run  func([]Complex, Ctx)
	}{{"FFT", e.FFT}, {"IFFT", e.IFFT}} {
		b.Run(dir.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(vals, msg)
				dir.run(vals, ctx)
			}
		})
	}
}
