// Package fftfp implements the floating-point side of ABC-FHE's
// reconfigurable Fourier engine: the CKKS canonical-embedding FFT/IFFT
// evaluated in *configurable-mantissa* floating point.
//
// The paper's RFE runs I/FFT in a custom 55-bit format (1 sign + 11
// exponent + 43 mantissa bits, "FP55") chosen by sweeping the mantissa
// width against bootstrapping precision (Fig. 3c): ≥43 mantissa bits keep
// Boot. prec. at 23.39 bits, above the 19.29-bit threshold that prior work
// (SHARP) established for AI workloads. This package emulates any mantissa
// width m ≤ 52 by rounding every primitive operation's float64 result to m
// fractional mantissa bits (round-to-nearest-even), which is exact FP-m
// emulation up to double-rounding effects that are far below the measured
// error floors.
//
// The Embedder holds its twiddles in stage order: one table per direction,
// entry [h+j] for butterfly j of the stage with half-length h, each copied
// from the master root table at exactly the index the butterfly schedule
// defines. FFT and IFFT walk each stage as contiguous x, y and twiddle
// runs, with no per-butterfly index arithmetic, and perform the same
// operations in the same order on the same values as the index-computing
// loops they replaced — so their output is bit-identical at every mantissa
// width (fft_test.go keeps those loops as the oracle). At full float64
// width the rounding step inlines to a predicted branch. Lane-parallel
// stages are not implemented: one transform at N = 2^16 takes a few
// milliseconds, a small share of a client operation.
package fftfp

import "math"

// FP55Mantissa is the mantissa width of the paper's custom format.
const FP55Mantissa = 43

// Float64Mantissa is the native float64 mantissa width (no emulation
// beyond this).
const Float64Mantissa = 52

// RoundMantissa rounds x to `mant` explicit mantissa bits with
// round-to-nearest-even. mant ≥ 52 returns x unchanged. Zeros, infinities
// and NaNs pass through. A finite input never rounds to an infinity: a
// top-binade value whose round-up would carry past the largest exponent
// saturates to ±MaxFloat64.
func RoundMantissa(x float64, mant int) float64 {
	if mant >= Float64Mantissa {
		return x
	}
	if mant < 1 {
		panic("fftfp: mantissa width must be ≥ 1")
	}
	b := math.Float64bits(x)
	if exp := (b >> 52) & 0x7FF; exp == 0 || exp == 0x7FF {
		return x // zero/subnormal/inf/NaN: leave untouched
	}
	drop := uint(Float64Mantissa - mant)
	mask := (uint64(1) << drop) - 1
	frac := b & mask
	half := uint64(1) << (drop - 1)
	b &^= mask
	if frac > half || (frac == half && (b>>drop)&1 == 1) {
		b += uint64(1) << drop // may carry into the exponent: correct rounding
		if (b>>52)&0x7FF == 0x7FF {
			return math.Copysign(math.MaxFloat64, x)
		}
	}
	return math.Float64frombits(b)
}

// Ctx is an arithmetic context with a fixed mantissa width. The zero value
// is invalid; use NewCtx. Ctx is tiny and copied by value.
type Ctx struct {
	Mant int
}

// NewCtx returns a context emulating `mant` mantissa bits (use
// Float64Mantissa for native precision).
func NewCtx(mant int) Ctx {
	if mant < 1 {
		panic("fftfp: mantissa width must be ≥ 1")
	}
	if mant > Float64Mantissa {
		mant = Float64Mantissa
	}
	return Ctx{Mant: mant}
}

// round is RoundMantissa at the context's width. The full-width early
// return inlines, so at Float64Mantissa every primitive operation below is
// the bare float64 operation; the explicit conversion still rounds each
// result on its own, so no platform fuses a multiply into the add after it.
func (c Ctx) round(x float64) float64 {
	if c.Mant >= Float64Mantissa {
		return float64(x)
	}
	return RoundMantissa(x, c.Mant)
}

// Complex is a complex number whose components live in a reduced-precision
// context. Operations take the context explicitly so tables can be stored
// once and used at several precisions.
type Complex struct {
	Re, Im float64
}

// Add returns a+b with each component rounded.
func (c Ctx) Add(a, b Complex) Complex {
	return Complex{c.round(a.Re + b.Re), c.round(a.Im + b.Im)}
}

// Sub returns a-b with each component rounded.
func (c Ctx) Sub(a, b Complex) Complex {
	return Complex{c.round(a.Re - b.Re), c.round(a.Im - b.Im)}
}

// Mul returns a·b using the 4-multiplier schoolbook form the RFE implements
// (paper Eq. 12: (ac-bd) + i(ad+bc)), rounding after every primitive
// multiply and add exactly as the hardware datapath would.
func (c Ctx) Mul(a, b Complex) Complex {
	ac := c.round(a.Re * b.Re)
	bd := c.round(a.Im * b.Im)
	ad := c.round(a.Re * b.Im)
	bc := c.round(a.Im * b.Re)
	return Complex{c.round(ac - bd), c.round(ad + bc)}
}

// Scale returns a·s for real s, rounded.
func (c Ctx) Scale(a Complex, s float64) Complex {
	return Complex{c.round(a.Re * s), c.round(a.Im * s)}
}

// RoundC rounds both components of a into the context's precision; used to
// quantize twiddle tables before use.
func (c Ctx) RoundC(a Complex) Complex {
	return Complex{c.round(a.Re), c.round(a.Im)}
}

// Abs returns |a| in full precision (measurement only, not datapath).
func (a Complex) Abs() float64 { return math.Hypot(a.Re, a.Im) }
