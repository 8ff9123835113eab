package fftfp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/lanes"
)

// Embedder computes the CKKS canonical embedding and its inverse: the
// "special" FFT over the subgroup generated by 5 in (Z/2N)^*, which is what
// client-side encoding/decoding runs on the RFE's FFT mode (paper Fig. 2a:
// Message → IFFT → Expand RNS on encode; Combine CRT → FFT on decode).
//
// Slots hold N/2 complex values. Decode evaluates the integer polynomial at
// the odd primitive 2N-th roots ζ^{5^j}; Encode inverts that map onto real
// coefficient vectors using the conjugate-symmetry split (real parts in the
// low half, imaginary parts in the high half).
//
// The twiddles are held in stage order, as the RFE's twiddle feed supplies
// them: fwd[h+j] is the twiddle of butterfly j in the stage of half-length
// h (h = 1, 2, …, Slots/2), so each stage reads one contiguous run
// fwd[h:2h]; inv is the same for the inverse direction. Each entry is the
// master-table root ζ^idx at exactly the index the butterfly schedule
// defines (fwdIndex, invIndex), so the tables change where a twiddle is
// read from, not its value.
type Embedder struct {
	LogN  int
	N     int
	Slots int // N/2
	M     int // 2N

	fwd []Complex // decode-direction twiddles, [h+j] for stage half-length h
	inv []Complex // encode-direction twiddles, same layout
}

// NewEmbedder builds tables for ring degree N = 2^logN.
func NewEmbedder(logN int) *Embedder {
	if logN < 2 || logN > 17 {
		panic(fmt.Sprintf("fftfp: unsupported logN %d", logN))
	}
	n := 1 << uint(logN)
	e := &Embedder{LogN: logN, N: n, Slots: n / 2, M: 2 * n}
	rotGroup, ksi := powersOfFive(e.Slots, e.M), rootsOfUnity(e.M)
	e.fwd = make([]Complex, e.Slots)
	e.inv = make([]Complex, e.Slots)
	for h := 1; h < e.Slots; h <<= 1 {
		for j := 0; j < h; j++ {
			e.fwd[h+j] = ksi[fwdIndex(rotGroup[j], h, e.M)]
			e.inv[h+j] = ksi[invIndex(rotGroup[j], h, e.M)]
		}
	}
	return e
}

// powersOfFive returns 5^j mod m for j < slots: the rotation group whose
// roots ζ^{5^j} are the slots' evaluation points.
func powersOfFive(slots, m int) []int {
	g := make([]int, slots)
	five := 1
	for j := range g {
		g[j] = five
		five = five * 5 % m
	}
	return g
}

// rootsOfUnity returns the full-precision master table exp(2πi·j/m), j < m.
func rootsOfUnity(m int) []Complex {
	ksi := make([]Complex, m)
	for j := range ksi {
		angle := 2 * math.Pi * float64(j) / float64(m)
		ksi[j] = Complex{math.Cos(angle), math.Sin(angle)}
	}
	return ksi
}

// fwdIndex is the master-table index of the decode-direction twiddle of
// butterfly j (rotation-group element g = 5^j) in the stage of half-length
// h: ζ^{(g mod 8h)·M/(8h)}, a primitive 8h-th root raised to g.
func fwdIndex(g, h, m int) int {
	lenq := h << 3
	return (g % lenq) * (m / lenq)
}

// invIndex is fwdIndex's conjugate, the encode-direction twiddle.
func invIndex(g, h, m int) int {
	lenq := h << 3
	return (lenq - g%lenq) * (m / lenq)
}

func bitReverseC(vals []Complex) {
	logN := bits.Len(uint(len(vals))) - 1
	for i := range vals {
		j := int(bits.Reverse64(uint64(i)) >> (64 - uint(logN)))
		if j > i {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// FFT transforms vals (length Slots) in place: the decode-direction special
// FFT. All arithmetic (including twiddle quantization) happens in ctx's
// precision — pass NewCtx(Float64Mantissa) for reference behaviour.
//
// Each stage walks contiguous x, y and twiddle runs. Every butterfly runs
// the same operations in the same order on the same twiddle values as the
// index-computing form (Mul by the rounded twiddle, then Add and Sub), so
// the output is bit-identical to it at every mantissa width.
func (e *Embedder) FFT(vals []Complex, ctx Ctx) {
	if len(vals) != e.Slots {
		panic("fftfp: FFT expects N/2 slot values")
	}
	bitReverseC(vals)
	size := e.Slots
	for h := 1; h < size; h <<= 1 {
		tw := e.fwd[h : 2*h]
		for i := 0; i < size; i += 2 * h {
			x, y := vals[i:i+h], vals[i+h:i+2*h]
			for j, w := range tw {
				u := x[j]
				v := ctx.Mul(y[j], ctx.RoundC(w))
				x[j] = ctx.Add(u, v)
				y[j] = ctx.Sub(u, v)
			}
		}
	}
}

// IFFT transforms vals (length Slots) in place: the encode-direction
// inverse special FFT, including the 1/Slots normalization.
func (e *Embedder) IFFT(vals []Complex, ctx Ctx) {
	if len(vals) != e.Slots {
		panic("fftfp: IFFT expects N/2 slot values")
	}
	size := e.Slots
	for h := size >> 1; h >= 1; h >>= 1 {
		tw := e.inv[h : 2*h]
		for i := 0; i < size; i += 2 * h {
			x, y := vals[i:i+h], vals[i+h:i+2*h]
			for j, w := range tw {
				u := ctx.Add(x[j], y[j])
				v := ctx.Mul(ctx.Sub(x[j], y[j]), ctx.RoundC(w))
				x[j] = u
				y[j] = v
			}
		}
	}
	inv := 1 / float64(size)
	for i := range vals {
		vals[i] = ctx.Scale(vals[i], inv)
	}
	bitReverseC(vals)
}

// EvalNaive evaluates the decode map directly from its definition:
// out[j] = Σ_k vals[k]·ζ^{5^j·k} — the O(N²) oracle the FFT is verified
// against.
func (e *Embedder) EvalNaive(vals []Complex) []Complex {
	rotGroup, ksi := powersOfFive(e.Slots, e.M), rootsOfUnity(e.M)
	out := make([]Complex, e.Slots)
	full := NewCtx(Float64Mantissa)
	for j := 0; j < e.Slots; j++ {
		var acc Complex
		for k := 0; k < e.Slots; k++ {
			idx := rotGroup[j] * k % e.M
			acc = full.Add(acc, full.Mul(vals[k], ksi[idx]))
		}
		out[j] = acc
	}
	return out
}

// EncodeToCoeffs maps Slots complex message values to N real polynomial
// coefficients (unscaled): the IFFT followed by the conjugate-symmetry
// split — real parts to coefficients [0, N/2), imaginary parts to
// [N/2, N). This is the exact shape the MSE's "Expand RNS" stage consumes.
func (e *Embedder) EncodeToCoeffs(msg []Complex, ctx Ctx) []float64 {
	if len(msg) != e.Slots {
		panic("fftfp: message must have N/2 slots")
	}
	vals := GetSlotSlab(e.Slots)
	copy(vals, msg)
	coeffs := e.EncodeToCoeffsInto(vals, make([]float64, e.N), ctx)
	PutSlotSlab(vals)
	return coeffs
}

// EncodeToCoeffsInto is EncodeToCoeffs over caller-provided storage: it
// runs the IFFT on vals in place (their contents are consumed) and writes
// the N coefficients into coeffs, which it returns — the allocation-free
// form the encode hot path pairs with GetSlotSlab.
func (e *Embedder) EncodeToCoeffsInto(vals []Complex, coeffs []float64, ctx Ctx) []float64 {
	if len(coeffs) != e.N {
		panic("fftfp: coefficient vector must have length N")
	}
	e.IFFT(vals, ctx)
	for j, v := range vals {
		coeffs[j] = v.Re
		coeffs[j+e.Slots] = v.Im
	}
	return coeffs
}

// DecodeFromCoeffs inverts EncodeToCoeffs: N real coefficients to Slots
// complex values via the forward special FFT.
func (e *Embedder) DecodeFromCoeffs(coeffs []float64, ctx Ctx) []Complex {
	return e.DecodeFromCoeffsInto(coeffs, make([]Complex, e.Slots), ctx)
}

// DecodeFromCoeffsInto is DecodeFromCoeffs writing into a caller-provided
// slot vector of length Slots (returned for chaining) — the
// allocation-free form the decode hot path pairs with GetSlotSlab.
func (e *Embedder) DecodeFromCoeffsInto(coeffs []float64, vals []Complex, ctx Ctx) []Complex {
	if len(coeffs) != e.N {
		panic("fftfp: coefficient vector must have length N")
	}
	if len(vals) != e.Slots {
		panic("fftfp: slot vector must have length N/2")
	}
	for j := range vals {
		vals[j] = Complex{coeffs[j], coeffs[j+e.Slots]}
	}
	e.FFT(vals, ctx)
	return vals
}

// Pooled slot-vector scratch: Decode emits one Slots-length Complex
// vector per message (512 KB at N=2^16), so steady-state decode loops
// recycle them here instead of churning the GC — the same ownership rules
// as the lanes pools (contents unspecified, callers overwrite).

var slotSlabs lanes.SlabPool[Complex]

// GetSlotSlab returns a pooled []Complex of exactly length n, contents
// unspecified.
func GetSlotSlab(n int) []Complex { return slotSlabs.Get(n) }

// PutSlotSlab returns a slab obtained from GetSlotSlab.
func PutSlotSlab(s []Complex) { slotSlabs.Put(s) }
