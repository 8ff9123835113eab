package ntt

// The reference kernels: strict radix-2 Montgomery butterflies, the portable
// backend and the oracle of the lazy Shoup kernels (lazy.go), with which
// they share no multiplication routine. Each group converts its twiddle
// from the plain table with one MForm (the inverse from the mirror).

// Forward computes the in-place negacyclic NTT of a (length N, natural
// order in, natural order out — the bit-reversal is internal). After
// Forward, coefficient-wise multiplication corresponds to negacyclic
// convolution in the ring Z_q[X]/(X^N+1).
//
// This is the merged-ψ Cooley–Tukey formulation: stage m pairs elements at
// distance t = N/2m and multiplies by ψ^{brev(m+i)}, so no separate ψ^n
// pre-scaling pass exists — the property the ABC-FHE RFE exploits to hit
// the P/2·log2(N) multiplier lower bound (paper Fig. 4a).
func (t *Table) Forward(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	m := t.Mod
	q := m.Q
	for mm, tt := 1, t.N>>1; mm < t.N; mm, tt = mm<<1, tt>>1 {
		for i := 0; i < mm; i++ {
			s := m.MForm(t.W[mm+i])
			j1 := 2 * i * tt
			for j := j1; j < j1+tt; j++ {
				u := a[j]
				v := m.MRedMul(a[j+tt], s)
				uv := u + v
				if uv >= q {
					uv -= q
				}
				a[j] = uv
				uv = u - v
				if u < v {
					uv += q
				}
				a[j+tt] = uv
			}
		}
	}
}

// Inverse computes the in-place inverse negacyclic NTT (Gentleman–Sande
// with merged ψ^{-1}), including the final N^{-1} scaling.
func (t *Table) Inverse(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	m := t.Mod
	q := m.Q
	tt := 1
	for mm := t.N; mm > 1; mm >>= 1 {
		h := mm >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			s := m.MForm(q - t.W[2*h-1-i]) // ψ^{-brev(h+i)}, the mirror
			for j := j1; j < j1+tt; j++ {
				u := a[j]
				v := a[j+tt]
				uv := u + v
				if uv >= q {
					uv -= q
				}
				a[j] = uv
				uv = u - v
				if u < v {
					uv += q
				}
				a[j+tt] = m.MRedMul(uv, s)
			}
			j1 += 2 * tt
		}
		tt <<= 1
	}
	for j := range a {
		a[j] = m.MRedMul(a[j], t.NInv)
	}
}

// PolyMulNTT returns the negacyclic product of a and b (natural-order
// coefficient vectors) using the transform: NTT both, multiply pointwise,
// inverse-transform. Inputs are not modified.
func (t *Table) PolyMulNTT(a, b []uint64) []uint64 {
	ah := append([]uint64(nil), a...)
	bh := append([]uint64(nil), b...)
	t.Forward(ah)
	t.Forward(bh)
	m := t.Mod
	for i := range ah {
		ah[i] = m.Mul(ah[i], bh[i])
	}
	t.Inverse(ah)
	return ah
}

// PolyMulNaive is the O(N²) schoolbook negacyclic product, the oracle the
// transform is verified against: c_k = Σ_{i+j≡k} ± a_i b_j with the sign
// flipped when i+j wraps past N (because X^N = −1).
func (t *Table) PolyMulNaive(a, b []uint64) []uint64 {
	m := t.Mod
	n := t.N
	c := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := m.Mul(a[i], b[j])
			k := i + j
			if k < n {
				c[k] = m.Add(c[k], p)
			} else {
				c[k-n] = m.Sub(c[k-n], p)
			}
		}
	}
	return c
}
