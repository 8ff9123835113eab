package ckks

import (
	"math"

	"repro/internal/fftfp"
	"repro/internal/lanes"
	"repro/internal/mod"
	"repro/internal/ring"
)

// Plaintext is an encoded message: an RNS polynomial at some level carrying
// a scale. Domain is the coefficient domain after encoding (the form the
// Expand-RNS stage emits, paper Fig. 2a).
type Plaintext struct {
	Value *ring.Poly
	Level int
	Scale float64
}

// PutPlaintext recycles pt's backing polynomial into the scratch pool.
// Only call when pt was produced by this library (Encode/Decrypt) and no
// reference to it survives — the fused pipelines (Client.EncodeEncrypt
// and friends) use it to run allocation-free in steady state.
func (p *Parameters) PutPlaintext(pt *Plaintext) {
	if pt == nil {
		return
	}
	p.Ring().PutPoly(pt.Value) // PutPoly keys off the poly's own shape
	pt.Value = nil
}

// Encoder maps complex message vectors to plaintext polynomials and back:
// IFFT + Expand RNS one way, Combine CRT + FFT the other. The floating
// transforms run in the parameter set's mantissa context, so building
// Parameters with MantBits: fftfp.FP55Mantissa reproduces the
// accelerator's FP55 datapath bit-for-bit at the model level.
type Encoder struct {
	params *Parameters

	// pow2 tables per prime of the Q chain followed by the P chain:
	// pow2[i][e] = 2^e mod moduli[i], for the exact float→RNS path (see
	// encodeCoeff). Covers e ∈ [0, maxPow2).
	moduli []mod.Modulus
	pow2   [][]uint64
}

const maxPow2 = 160 // coefficient magnitudes < 2^160 — far above any scale used

// NewEncoder builds the encoder and its power-of-two residue tables (for
// the special primes too, so plaintexts can be expanded over Q·P).
func NewEncoder(params *Parameters) *Encoder {
	enc := &Encoder{params: params}
	enc.moduli = append(enc.moduli, params.Ring().Basis.Moduli...)
	if params.SpecialLimbs > 0 {
		enc.moduli = append(enc.moduli, params.RingP().Basis.Moduli...)
	}
	enc.pow2 = make([][]uint64, len(enc.moduli))
	for i, m := range enc.moduli {
		tbl := make([]uint64, maxPow2)
		tbl[0] = 1
		for e := 1; e < maxPow2; e++ {
			tbl[e] = m.Add(tbl[e-1], tbl[e-1])
		}
		enc.pow2[i] = tbl
	}
	return enc
}

// encodeCoeff writes round(v·2^logScale) into q[i][j] for every limb i of
// q (a prefix of the Q chain) and into pp[i][j] for every limb of pp (the
// P chain; nil for a Q-only plaintext). The path is exact: v = ±M·2^(exp-53)
// with M the 53-bit mantissa, so v·2^logScale = ±M·2^e with
// e = exp-53+logScale, and the residue is (M mod q)·(2^e mod q) — all in
// word arithmetic, no big integers (this is what the MSE's Expand-RNS
// stage computes in hardware), and the same on every prime of either chain.
func (enc *Encoder) encodeCoeff(v float64, j, logScale int, q, pp [][]uint64) {
	if v == 0 {
		for i := range q {
			q[i][j] = 0
		}
		for i := range pp {
			pp[i][j] = 0
		}
		return
	}
	neg := false
	if v < 0 {
		neg = true
		v = -v
	}
	fr, exp := math.Frexp(v) // v = fr·2^exp, fr ∈ [0.5, 1)
	m := uint64(fr * (1 << 53))
	e := exp - 53 + logScale
	if e < 0 {
		// Shift mantissa right with round-to-nearest.
		sh := uint(-e)
		if sh > 54 {
			m = 0
		} else {
			m = (m + (1 << (sh - 1))) >> sh
		}
		e = 0
	}
	if e >= maxPow2 {
		panic("ckks: encoded coefficient exceeds supported magnitude")
	}
	expand := func(limbs [][]uint64, first int) {
		for i, row := range limbs {
			mm := enc.moduli[first+i]
			res := mm.Mul(m%mm.Q, enc.pow2[first+i][e])
			if neg {
				res = mm.Neg(res)
			}
			row[j] = res
		}
	}
	expand(q, 0)
	expand(pp, enc.params.Limbs)
}

// EncodeAtLevel encodes up to Slots() complex values into a plaintext at
// the given level (limb count). Shorter messages are zero-padded.
func (enc *Encoder) EncodeAtLevel(msg []complex128, level int) *Plaintext {
	return enc.EncodeAtLevelScale(msg, level, enc.params.LogScale)
}

// EncodeAtLevelScale is EncodeAtLevel at an explicit scale Δ = 2^logScale
// instead of the parameter set's. Plaintext operands of homomorphic linear
// transforms use it: a transform's diagonals are encoded at exactly the
// scale its built-in rescales will consume, so the output scale returns to
// the input's regardless of the parameter set's Δ.
func (enc *Encoder) EncodeAtLevelScale(msg []complex128, level, logScale int) *Plaintext {
	p := enc.params
	if len(msg) > p.Slots() {
		panic("ckks: message longer than slot count")
	}
	if level < 1 || level > p.MaxLevel() {
		panic("ckks: level out of range")
	}
	if logScale < 1 || logScale >= maxPow2-60 {
		panic("ckks: encode scale out of range")
	}
	rl := p.RingAt(level)
	pt := rl.GetPolyUninit() // every limb of every coefficient is written below
	enc.expandRNS(enc.toCoeffs(msg), logScale, pt.Coeffs, nil)
	scale := 1.0
	for i := 0; i < logScale; i++ {
		scale *= 2
	}
	return &Plaintext{Value: pt, Level: level, Scale: scale}
}

// toCoeffs runs the IFFT half of encoding: the message's real
// coefficient vector (N floats), before scaling and RNS expansion.
func (enc *Encoder) toCoeffs(msg []complex128) []float64 {
	p := enc.params
	vals := make([]fftfpComplex, p.Slots())
	for i, z := range msg {
		vals[i] = fftfpComplex{Re: real(z), Im: imag(z)}
	}
	return p.Embedder().EncodeToCoeffs(vals, p.FFTCtx())
}

// expandRNS is the Expand-RNS stage: round(coeffs[j]·2^logScale) into
// every limb of q and pp (see encodeCoeff). Each coefficient's expansion
// is pure word arithmetic over read-only tables, so it fans out across the
// lanes in contiguous coefficient chunks (the MSE's parallel expand stage).
func (enc *Encoder) expandRNS(coeffs []float64, logScale int, q, pp [][]uint64) {
	enc.params.Ring().Engine().RunChunks(len(coeffs), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			enc.encodeCoeff(coeffs[j], j, logScale, q, pp)
		}
	})
}

// Encode encodes at full depth (the client's encrypt-side configuration).
func (enc *Encoder) Encode(msg []complex128) *Plaintext {
	return enc.EncodeAtLevel(msg, enc.params.MaxLevel())
}

// Decode maps a plaintext back to complex slots: Combine CRT on every
// coefficient (centered lift over the level's modulus), divide by the
// scale, then the forward special FFT.
func (enc *Encoder) Decode(pt *Plaintext) []complex128 {
	return enc.DecodeInto(pt, make([]complex128, enc.params.Slots()))
}

// DecodeInto is Decode writing into a caller-provided slot vector of
// length Slots() (returned for chaining) — the allocation-lean form the
// batch pipeline reuses buffers through.
//
// The Combine-CRT stage runs on the basis's allocation-free fast combine
// (rns.CombineCenteredFloatScratch): per-coefficient centered lifts are
// independent, so coefficient blocks fan out across the lane engine, and
// every block draws its limb/accumulator scratch from the lanes pools.
// The big.Int oracle path stays available for verification
// (rns.CombineCenteredFloatBig); the property/fuzz suite in internal/rns
// pins the two to ≤1e-12 relative disagreement at every level.
func (enc *Encoder) DecodeInto(pt *Plaintext, out []complex128) []complex128 {
	p := enc.params
	if len(out) != p.Slots() {
		panic("ckks: decode output must have Slots() entries")
	}
	rl := p.RingAt(pt.Level)
	val := pt.Value
	var scratch *ring.Poly
	if val.IsNTT {
		scratch = rl.GetPolyCopy(val)
		rl.INTT(scratch)
		val = scratch
	}
	basis := rl.Basis
	level, scale := pt.Level, pt.Scale
	coeffs := lanes.GetFloatSlab(p.N())
	rl.Engine().RunChunks(p.N(), func(lo, hi int) {
		limbs := lanes.GetSlab(level)
		comb := lanes.GetSlab(basis.CombineScratchLen())
		for j := lo; j < hi; j++ {
			for i := 0; i < level; i++ {
				limbs[i] = val.Coeffs[i][j]
			}
			coeffs[j] = basis.CombineCenteredFloatScratch(limbs, scale, comb)
		}
		lanes.PutSlab(comb)
		lanes.PutSlab(limbs)
	})
	rl.PutPoly(scratch)
	slots := fftfp.GetSlotSlab(p.Slots())
	p.Embedder().DecodeFromCoeffsInto(coeffs, slots, p.FFTCtx())
	lanes.PutFloatSlab(coeffs)
	for i, v := range slots {
		out[i] = complex(v.Re, v.Im)
	}
	fftfp.PutSlotSlab(slots)
	return out
}
