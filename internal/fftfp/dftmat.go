package fftfp

import "math/bits"

// Factored homomorphic DFT matrices — the plaintext side of
// CoeffsToSlots/SlotsToCoeffs. The special FFT the Embedder evaluates is a
// product of log2(Slots) sparse butterfly stages; each stage is a matrix
// with three nonzero diagonals, and consecutive stages can be multiplied
// into grouped matrices whose diagonal count grows as 2^(k+1)−1 for k
// stages — the level/rotation trade-off every CKKS bootstrapping stack
// tunes. This file builds those matrices in diagonal form, exactly
// mirroring the butterfly schedules of FFT/IFFT (fft.go) and reading the
// same stage-ordered twiddle tables, so the homomorphic evaluation and the
// plaintext reference share one source of truth for twiddles and stage
// order.
//
// Conventions:
//
//   - diag d of an n×n matrix M is the vector D_d with D_d[r] = M[r][(r+d) mod n],
//     so M·v = Σ_d D_d ⊙ rot_d(v) with rot_d(v)[r] = v[(r+d) mod n] — the
//     rotation direction Server.Rotate implements.
//   - The bit-reversal permutation is never represented: CoeffsToSlots
//     evaluates only the butterfly product, so its output holds the
//     encoding-basis values in bit-reversed slot order, and SlotsToCoeffs
//     consumes exactly that order. The permutation cancels in the round
//     trip and costs nothing homomorphically.

// DiagMatrix is a sparse matrix in diagonal form. Diags[d] (d normalized
// into [0, N)) holds diagonal d as a length-N vector; absent diagonals are
// zero.
type DiagMatrix struct {
	N     int
	Diags map[int][]complex128
}

// DiagIndices returns the nonzero diagonal indices in ascending order.
func (m *DiagMatrix) DiagIndices() []int {
	idx := make([]int, 0, len(m.Diags))
	for d := range m.Diags {
		idx = append(idx, d)
	}
	for i := 1; i < len(idx); i++ { // insertion sort: tiny sets
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return idx
}

// Apply multiplies m by v in plain float arithmetic — the O(diags·N)
// reference the homomorphic evaluation is verified against.
func (m *DiagMatrix) Apply(v []complex128) []complex128 {
	if len(v) != m.N {
		panic("fftfp: DiagMatrix.Apply dimension mismatch")
	}
	out := make([]complex128, m.N)
	for d, diag := range m.Diags {
		for r := range out {
			out[r] += diag[r] * v[(r+d)%m.N]
		}
	}
	return out
}

// Scale multiplies every entry by s in place (used to fold the conjugate
// split's 1/2 into the last CoeffsToSlots group).
func (m *DiagMatrix) Scale(s complex128) {
	for _, diag := range m.Diags {
		for r := range diag {
			diag[r] *= s
		}
	}
}

func (m *DiagMatrix) diag(d int) []complex128 {
	d = ((d % m.N) + m.N) % m.N
	if v, ok := m.Diags[d]; ok {
		return v
	}
	v := make([]complex128, m.N)
	m.Diags[d] = v
	return v
}

// MulDiag returns the product a·b (b applied first) of two matrices in
// diagonal form: C_d[r] = Σ_{d1} A_{d1}[r]·B_{(d−d1) mod n}[(r+d1) mod n].
func MulDiag(a, b *DiagMatrix) *DiagMatrix {
	if a.N != b.N {
		panic("fftfp: DiagMatrix product dimension mismatch")
	}
	n := a.N
	c := &DiagMatrix{N: n, Diags: map[int][]complex128{}}
	for d1, da := range a.Diags {
		for d2, db := range b.Diags {
			cd := c.diag(d1 + d2)
			for r := 0; r < n; r++ {
				cd[r] += da[r] * db[(r+d1)%n]
			}
		}
	}
	return c
}

// identityDiag returns the n×n identity in diagonal form.
func identityDiag(n int) *DiagMatrix {
	d := make([]complex128, n)
	for i := range d {
		d[i] = 1
	}
	return &DiagMatrix{N: n, Diags: map[int][]complex128{0: d}}
}

// dftStage builds one butterfly stage of the special FFT as a diagonal
// matrix over the Slots-dimensional message space. inverse=false is the
// decode-direction stage S_length (FFT's body); inverse=true is the
// encode-direction stage T_length (IFFT's body) with the stage's share of
// the 1/Slots normalization (a factor 1/2) folded in.
func (e *Embedder) dftStage(length int, inverse bool) *DiagMatrix {
	n := e.Slots
	lenh := length >> 1
	tw := e.fwd[lenh:length]
	if inverse {
		tw = e.inv[lenh:length]
	}
	m := &DiagMatrix{N: n, Diags: map[int][]complex128{}}
	d0 := m.diag(0)
	dUp := m.diag(lenh)     // reads slot r+lenh
	dDn := m.diag(n - lenh) // reads slot r−lenh (wrapped)
	for i := 0; i < n; i += length {
		for j, t := range tw {
			p, pp := i+j, i+j+lenh
			w := complex(t.Re, t.Im)
			if !inverse {
				// FFT: out[p] = x[p] + w·x[p+lenh]; out[pp] = x[pp−lenh] − w·x[pp].
				d0[p] += 1
				dUp[p] += w
				d0[pp] -= w
				dDn[pp] += 1
			} else {
				// IFFT: out[p] = x[p] + x[p+lenh]; out[pp] = (x[pp−lenh] − x[pp])·w̄.
				d0[p] += 1
				dUp[p] += 1
				d0[pp] -= w
				dDn[pp] += w
			}
		}
	}
	if inverse {
		m.Scale(0.5) // (1/2)^log2(Slots) per-stage fold = the 1/Slots factor
	}
	// When lenh == n/2 the up and down diagonals coincide (index n/2); the
	// shared diag accumulated both contributions above. Drop an all-zero
	// alias only if one was created spuriously — not possible here, but
	// keep the invariant that every stored diagonal is nonzero.
	return m
}

// DFTMatrices factors the homomorphic DFT into `levels` grouped diagonal
// matrices, returned in application order (apply [0] first).
//
//   - inverse=true is the CoeffsToSlots direction: the encode-direction
//     butterfly product (1/Slots folded in), T_Slots applied first. Fed a
//     ciphertext whose slots decode to z, the chained product leaves slot r
//     holding t[bitrev(r)] where t = IFFT(z) — the plaintext polynomial's
//     coefficient pairs c_r + i·c_{r+Slots} in bit-reversed order.
//   - inverse=false is the SlotsToCoeffs direction: the decode-direction
//     product, S_2 applied first, consuming exactly that bit-reversed
//     order and restoring z.
//
// log2(Slots) stages split into `levels` groups as evenly as possible;
// earlier-applied groups take the remainder. A group of k stages has
// ≤ 2^(k+1)−1 nonzero diagonals.
func (e *Embedder) DFTMatrices(levels int, inverse bool) []*DiagMatrix {
	logn := bits.Len(uint(e.Slots)) - 1
	if levels < 1 || levels > logn {
		panic("fftfp: DFT level count out of range")
	}
	// Stage lengths in application order.
	lengths := make([]int, logn)
	for i := range lengths {
		if inverse {
			lengths[i] = e.Slots >> uint(i)
		} else {
			lengths[i] = 2 << uint(i)
		}
	}
	per, rem := logn/levels, logn%levels
	out := make([]*DiagMatrix, 0, levels)
	pos := 0
	for g := 0; g < levels; g++ {
		k := per
		if g < rem {
			k++
		}
		grp := identityDiag(e.Slots)
		for s := 0; s < k; s++ {
			// Later stages multiply from the left (applied after).
			grp = MulDiag(e.dftStage(lengths[pos], inverse), grp)
			pos++
		}
		out = append(out, grp)
	}
	return out
}

// DFTDiagIndices returns, for each of the `levels` grouped matrices of
// DFTMatrices(levels, inverse) in application order, the nonzero diagonal
// indices (normalized into [0, slots), ascending) — computed analytically
// from the stage geometry, without materializing any matrix entries. Key
// owners use this to derive the exact rotation set a transform needs
// (see the public LinearTransformRotations helper).
//
// A group of stages with half-lengths h_1..h_k has diagonal sumset
// {Σ ε_i·h_i : ε ∈ {−1,0,1}} mod slots; entries never cancel (each
// butterfly row contributes with twiddles of modulus 1), so the sumset is
// exactly the support.
func DFTDiagIndices(logSlots, levels int, inverse bool) [][]int {
	if logSlots < 1 {
		panic("fftfp: logSlots must be ≥ 1")
	}
	if levels < 1 || levels > logSlots {
		panic("fftfp: DFT level count out of range")
	}
	slots := 1 << uint(logSlots)
	lengths := make([]int, logSlots)
	for i := range lengths {
		if inverse {
			lengths[i] = slots >> uint(i)
		} else {
			lengths[i] = 2 << uint(i)
		}
	}
	per, rem := logSlots/levels, logSlots%levels
	out := make([][]int, 0, levels)
	pos := 0
	for g := 0; g < levels; g++ {
		k := per
		if g < rem {
			k++
		}
		set := map[int]bool{0: true}
		for s := 0; s < k; s++ {
			h := lengths[pos] >> 1
			next := map[int]bool{}
			for d := range set {
				next[d] = true
				next[(d+h)%slots] = true
				next[((d-h)%slots+slots)%slots] = true
			}
			set = next
			pos++
		}
		idx := make([]int, 0, len(set))
		for d := range set {
			idx = append(idx, d)
		}
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			}
		}
		out = append(out, idx)
	}
	return out
}

// BitReverse permutes v by the bit-reversal of its index (v's length must
// be a power of two) — the slot order CoeffsToSlots emits. Exported for
// callers preparing or checking transform inputs in tests and tools.
func BitReverse(v []complex128) {
	logN := bits.Len(uint(len(v))) - 1
	for i := range v {
		j := int(bits.Reverse64(uint64(i)) >> (64 - uint(logN)))
		if j > i {
			v[i], v[j] = v[j], v[i]
		}
	}
}
