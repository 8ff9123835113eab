package ntt

// Lazy-reduction transforms, the kernels the fast lanes backend binds NTT
// Forward/Inverse to: the software analogue of the RFE's datapath headroom
// (paper §III). Butterfly outputs stay in extended ranges across stages;
// the portable Forward/Inverse in ntt.go stay the strict radix-2
// Montgomery oracle, and both produce byte-identical canonical output.
//
// Every product is a Shoup product by a twiddle of the one table
// (mod.MulShoupLazy), in [0, 2q) for any 64-bit input. The forward runs
// Harvey's butterfly on [0, 4q): u' = u − (u ≥ 2q ? 2q : 0), v' = w·v
// lazily, out = (u' + v', u' − v' + 2q), which needs 4q < 2^64 (mod caps q
// below 2^62). The inverse (Gentleman–Sande) stays in [0, 2q) and reads the
// table mirrored, ψ^{-brev(h+i)} = −W[2h−1−i]: (u + v, (v − u + 2q)·W[…]).
//
// Two stages run per sweep (radix-4), four coefficients and three twiddle
// pairs per iteration; an odd stage count adds one radix-2 sweep at the
// widest stride. The closing pass is fused into the last stage (forward:
// canonicalise; inverse: scale by N^{-1} and W[1]·N^{-1}), so N = 2^16
// takes 9 sweeps of the row instead of 17. DESIGN.md has the bounds.

import "repro/internal/mod"

// ct is the forward butterfly on [0, 4q): (u + w·v, u − w·v).
func ct(u, v, w, ws, q uint64) (uint64, uint64) {
	if u >= 2*q {
		u -= 2 * q
	}
	v = mod.MulShoupLazy(v, w, ws, q)
	return u + v, u - v + 2*q
}

// gs is the inverse butterfly on [0, 2q) with the mirrored twiddle w:
// (u + v, (v − u)·w).
func gs(u, v, w, ws, q uint64) (uint64, uint64) {
	s := u + v
	if s >= 2*q {
		s -= 2 * q
	}
	return s, mod.MulShoupLazy(v-u+2*q, w, ws, q)
}

// canon maps [0, 4q) onto [0, q).
func canon(v, q uint64) uint64 {
	if v >= 2*q {
		v -= 2 * q
	}
	if v >= q {
		v -= q
	}
	return v
}

// ForwardLazy computes the forward negacyclic NTT with lazy reduction.
// Input in [0, q), output in [0, q), byte-identical to Forward.
func (t *Table) ForwardLazy(a []uint64) {
	n := t.N
	if len(a) != n {
		panic("ntt: length mismatch")
	}
	q := t.Mod.Q
	w, ws := t.W, t.WShoup
	mm, tt := 1, n>>1  // the next stage: mm groups, butterflies tt apart
	if t.LogN&1 == 1 { // one radix-2 sweep at the widest stride
		x, y := a[:tt], a[tt:]
		for j := range x {
			x[j], y[j] = ct(x[j], y[j], w[1], ws[1], q)
		}
		if n == 2 {
			a[0], a[1] = canon(a[0], q), canon(a[1], q)
			return
		}
		mm, tt = 2, tt>>1
	}
	for ; tt > 2; mm, tt = mm<<2, tt>>2 {
		h := tt >> 1
		for i := 0; i < mm; i++ {
			x := a[2*i*tt : 2*(i+1)*tt]
			k := 2 * (mm + i)
			fwd4(x[:h], x[h:tt], x[tt:tt+h], x[tt+h:],
				w[mm+i], ws[mm+i], w[k], ws[k], w[k+1], ws[k+1], q)
		}
	}
	// Stages tt = 2 and 1 on blocks of four adjacent coefficients, with
	// the canonicalisation fused into the last butterflies.
	w1, ws1 := w[mm:2*mm], ws[mm:2*mm]
	w2, ws2 := w[2*mm:4*mm], ws[2*mm:4*mm]
	for i := range w1 {
		x := a[4*i : 4*i+4 : 4*i+4]
		a0, a2 := ct(x[0], x[2], w1[i], ws1[i], q)
		a1, a3 := ct(x[1], x[3], w1[i], ws1[i], q)
		a0, a1 = ct(a0, a1, w2[2*i], ws2[2*i], q)
		a2, a3 = ct(a2, a3, w2[2*i+1], ws2[2*i+1], q)
		x[0], x[1], x[2], x[3] = canon(a0, q), canon(a1, q), canon(a2, q), canon(a3, q)
	}
}

// fwd4 runs two forward stages over one block: (x0, x2) and (x1, x3)
// under w1, then (x0, x1) under w2 and (x2, x3) under w3.
func fwd4(x0, x1, x2, x3 []uint64, w1, ws1, w2, ws2, w3, ws3, q uint64) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for j := range x0 {
		a0, a2 := ct(x0[j], x2[j], w1, ws1, q)
		a1, a3 := ct(x1[j], x3[j], w1, ws1, q)
		x0[j], x1[j] = ct(a0, a1, w2, ws2, q)
		x2[j], x3[j] = ct(a2, a3, w3, ws3, q)
	}
}

// InverseLazy computes the inverse negacyclic NTT (including the N^{-1}
// scaling) with lazy reduction. Input in [0, q), output in [0, q),
// byte-identical to Inverse.
func (t *Table) InverseLazy(a []uint64) {
	n := t.N
	if len(a) != n {
		panic("ntt: length mismatch")
	}
	q := t.Mod.Q
	w, ws := t.W, t.WShoup
	h, tt := n>>1, 1 // the next stage: h groups, butterflies tt apart
	if n > 4 {
		// Stages tt = 1 and 2 on blocks of four adjacent coefficients.
		for i := 0; i < n>>2; i++ {
			x := a[4*i : 4*i+4 : 4*i+4]
			ka, kb, kc := n-1-2*i, n-2-2*i, n>>1-1-i
			a0, a1 := gs(x[0], x[1], w[ka], ws[ka], q)
			a2, a3 := gs(x[2], x[3], w[kb], ws[kb], q)
			x[0], x[2] = gs(a0, a2, w[kc], ws[kc], q)
			x[1], x[3] = gs(a1, a3, w[kc], ws[kc], q)
		}
		h, tt = n>>3, 4
	}
	for ; h > 2; h, tt = h>>2, tt<<2 {
		for i := 0; i < h>>1; i++ {
			x := a[4*i*tt : 4*(i+1)*tt]
			ka, kb, kc := 2*h-1-2*i, 2*h-2-2*i, h-1-i
			inv4(x[:tt], x[tt:2*tt], x[2*tt:3*tt], x[3*tt:],
				w[ka], ws[ka], w[kb], ws[kb], w[kc], ws[kc], q)
		}
	}
	// The last stage (h = 1, one group) carries the N^{-1} scaling.
	if h == 2 {
		t.inv4Last(a[:tt], a[tt:2*tt], a[2*tt:3*tt], a[3*tt:])
	} else {
		t.inv2Last(a[:tt], a[tt:])
	}
}

// inv4 runs two inverse stages over one block: (x0, x1) under wa and
// (x2, x3) under wb, then (x0, x2) and (x1, x3) under wc.
func inv4(x0, x1, x2, x3 []uint64, wa, wsa, wb, wsb, wc, wsc, q uint64) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for j := range x0 {
		a0, a1 := gs(x0[j], x1[j], wa, wsa, q)
		a2, a3 := gs(x2[j], x3[j], wb, wsb, q)
		x0[j], x2[j] = gs(a0, a2, wc, wsc, q)
		x1[j], x3[j] = gs(a1, a3, wc, wsc, q)
	}
}

// inv4Last is inv4 for the closing block (h = 2, then h = 1): twiddles
// W[3] and W[2], then the scaled last stage.
func (t *Table) inv4Last(x0, x1, x2, x3 []uint64) {
	q, wa, wsa, wb, wsb := t.Mod.Q, t.W[3], t.WShoup[3], t.W[2], t.WShoup[2]
	c, cs, c1, cs1 := t.nInv, t.nInvShoup, t.w1NInv, t.w1NInvShoup
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for j := range x0 {
		a0, a1 := gs(x0[j], x1[j], wa, wsa, q)
		a2, a3 := gs(x2[j], x3[j], wb, wsb, q)
		x0[j], x2[j] = gsLast(a0, a2, c, cs, c1, cs1, q)
		x1[j], x3[j] = gsLast(a1, a3, c, cs, c1, cs1, q)
	}
}

// inv2Last is the scaled last stage alone (odd stage counts).
func (t *Table) inv2Last(x, y []uint64) {
	q, c, cs, c1, cs1 := t.Mod.Q, t.nInv, t.nInvShoup, t.w1NInv, t.w1NInvShoup
	y = y[:len(x)]
	for j := range x {
		x[j], y[j] = gsLast(x[j], y[j], c, cs, c1, cs1, q)
	}
}

// gsLast is the last inverse butterfly with c = N^{-1} and c1 = W[1]·N^{-1}
// folded in: ((u + v)·c, (v − u)·c1), canonical.
func gsLast(u, v, c, cs, c1, cs1, q uint64) (uint64, uint64) {
	x := mod.MulShoupLazy(u+v, c, cs, q)
	y := mod.MulShoupLazy(v-u+2*q, c1, cs1, q)
	if x >= q {
		x -= q
	}
	if y >= q {
		y -= q
	}
	return x, y
}
