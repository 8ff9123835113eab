package prng

import (
	"math"
	"math/bits"
)

// GaussianSigma is the error standard deviation used throughout: the
// HE-standard σ = 3.2 (cf. the homomorphic-encryption security guidelines
// the paper cites as [5]).
const GaussianSigma = 3.2

// GaussianTailCut bounds samples to ±⌈6σ⌉, the conventional tail cut for
// RLWE error distributions.
const GaussianTailCut = 20 // ⌈6·3.2⌉ = 20

// UniformModQ returns the next uniform residue in [0, q) by rejection
// sampling on the minimal number of random bits (the same strategy a
// hardware PRNG uses so the expected consumption is < 2 words per sample).
// q == 1 consumes no keystream; q == 0 panics.
func (s *Source) UniformModQ(q uint64) uint64 {
	mask := uniformMask(q)
	for q > 1 {
		if v := s.Uint64() & mask; v < q {
			return v
		}
	}
	return 0
}

// uniformMask is the rejection mask for residues mod q: the low
// bitlen(q-1) bits.
func uniformMask(q uint64) uint64 {
	if q == 0 {
		panic("prng: q must be > 0")
	}
	return ^uint64(0) >> bits.LeadingZeros64(q-1)
}

// UniformPoly fills out with uniform residues mod q — UniformModQ per
// entry, with the mask computed once for the row. It reads the keystream
// block in place, a word pair per candidate exactly as Uint64 would, so
// the stream is the same as len(out) UniformModQ calls.
func (s *Source) UniformPoly(out []uint64, q uint64) {
	mask := uniformMask(q)
	if q == 1 {
		clear(out)
		return
	}
	c := &s.c
	for i := 0; i < len(out); {
		if c.used > 16-2 {
			c.block()
		}
		u := c.used
		for ; u <= 16-2 && i < len(out); u += 2 {
			if v := (uint64(c.ks[u]) | uint64(c.ks[u+1])<<32) & mask; v < q {
				out[i] = v
				i++
			}
		}
		c.used = u
	}
}

// TernarySample returns -1, 0 or +1 with P(-1)=P(+1)=p/2, P(0)=1-p. The
// standard CKKS secret/encryption randomness uses p = 2/3 (uniform ternary)
// or a fixed Hamming weight; TernaryPoly implements the uniform variant and
// TernaryPolyHW the fixed-weight variant.
func (s *Source) TernarySample() int64 {
	// Uniform over {-1, 0, +1} via rejection on 2 bits.
	for {
		b := s.Uint32() & 3
		switch b {
		case 0:
			return -1
		case 1:
			return 0
		case 2:
			return 1
			// case 3: reject
		}
	}
}

// TernaryPoly fills out with uniform ternary values mapped into Z_q
// (−1 ↦ q−1).
func (s *Source) TernaryPoly(out []uint64, q uint64) {
	for i := range out {
		switch s.TernarySample() {
		case -1:
			out[i] = q - 1
		case 0:
			out[i] = 0
		default:
			out[i] = 1
		}
	}
}

// TernaryPolyHW fills out with exactly hw nonzero entries (±1 with equal
// probability), the sparse-secret distribution used by bootstrappable CKKS
// parameter sets. It performs a Fisher–Yates placement driven by the
// stream.
func (s *Source) TernaryPolyHW(out []uint64, hw int, q uint64) {
	n := len(out)
	if hw > n {
		hw = n
	}
	for i := range out {
		out[i] = 0
	}
	// Choose hw distinct positions.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < hw; i++ {
		j := i + int(s.UniformModQ(uint64(n-i)))
		idx[i], idx[j] = idx[j], idx[i]
		if s.Uint32()&1 == 0 {
			out[idx[i]] = 1
		} else {
			out[idx[i]] = q - 1
		}
	}
}

// gaussianCDF is the precomputed half-CDF of the discrete Gaussian with
// σ = GaussianSigma, tail-cut at GaussianTailCut: gaussianCDF[k] =
// P(|X| ≤ k) scaled to 2^63. Built once at init; the hardware analogue is
// a small ROM (the paper folds it into the PRNG block).
var gaussianCDF [GaussianTailCut + 1]uint64

func init() {
	sigma := float64(GaussianSigma)
	var weights [GaussianTailCut + 1]float64
	sum := 0.0
	for k := 0; k <= GaussianTailCut; k++ {
		w := math.Exp(-float64(k*k) / (2 * sigma * sigma))
		if k > 0 {
			w *= 2 // both signs
		}
		weights[k] = w
		sum += w
	}
	acc := 0.0
	for k := 0; k <= GaussianTailCut; k++ {
		acc += weights[k]
		gaussianCDF[k] = uint64(acc / sum * float64(1<<63))
	}
	gaussianCDF[GaussianTailCut] = 1 << 63
}

// GaussianSample draws from the centered discrete Gaussian (σ = 3.2,
// tail-cut 6σ) by inverse-CDF lookup on 63 random bits plus a sign bit.
func (s *Source) GaussianSample() int64 {
	u := s.Uint64()
	sign := u >> 63
	r := u & ((1 << 63) - 1)
	// Linear scan: the table is 21 entries and heavily front-loaded
	// (P(|X|≤4) ≈ 0.79), so the expected scan length is ~2.
	k := int64(0)
	for i := 0; i <= GaussianTailCut; i++ {
		if r < gaussianCDF[i] {
			k = int64(i)
			break
		}
	}
	if sign == 1 {
		k = -k
	}
	return k
}

// GaussianPoly fills out with discrete-Gaussian values mapped into Z_q.
func (s *Source) GaussianPoly(out []uint64, q uint64) {
	for i := range out {
		g := s.GaussianSample()
		if g < 0 {
			out[i] = q - uint64(-g)
		} else {
			out[i] = uint64(g)
		}
	}
}
