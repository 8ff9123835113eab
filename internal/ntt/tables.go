// Package ntt implements the negacyclic number-theoretic transform over
// Z_q[X]/(X^N+1) — the workhorse of the CKKS client (internal/ckks).
//
// Two bit-identical kernel pairs are cross-checked: the radix-2 Montgomery
// reference (merged-ψ Cooley–Tukey forward / Gentleman–Sande inverse,
// ntt.go) and the radix-4 Shoup kernels of the fast backend (lazy.go),
// both on one table of 2N words per prime. The streaming lane model of
// ABC-FHE's pipelined NTT lanes and its on-the-fly twiddle generator live
// in internal/core/pnl and are checked against these kernels there.
//
// The merged-ψ trick (paper Eq. 2–3, citing Roy et al. [30] and
// Pöppelmann et al. [27]) folds the negacyclic pre/post-processing by
// ψ^n into the stage twiddles, which is what lets the hardware reach the
// theoretical minimum multiplier count (paper Fig. 4).
package ntt

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mod"
)

// Table holds every precomputed constant for transforms of degree N over
// modulus q. Tables are immutable after construction and safe to share.
type Table struct {
	N    int
	LogN int
	Mod  mod.Modulus

	Psi    uint64 // primitive 2N-th root of unity (plain form)
	PsiInv uint64 // ψ^{-1}

	// W[i] = ψ^{brev(i, logN)} in plain form and WShoup[i] its Shoup
	// companion ⌊W[i]·2^64/q⌋: the only twiddle table, 2N words per prime.
	// The forward CT butterfly at step m uses W[m+i]; the inverse reads it
	// mirrored, ψ^{-brev(h+i)} = −W[2h−1−i] (ψ^N = −1 and brev(h+(h−1−i))
	// = N − brev(h+i)), so no ψ^{-1} table exists.
	W      []uint64
	WShoup []uint64

	NInv uint64 // N^{-1} mod q in Montgomery form (the Montgomery kernels)

	// Closing factors of InverseLazy, each with its Shoup companion:
	// N^{-1} and W[1]·N^{-1}, plain form.
	nInv, nInvShoup, w1NInv, w1NInvShoup uint64

	// Lazily-built Galois tables (galois.go); guarded by galoisOnce.
	galoisOnce sync.Once
	galoisTab  *galoisTables
}

// NewTable builds transform tables for degree N (a power of two ≥ 2) over
// prime q, which must satisfy q ≡ 1 (mod 2N). Every rejected (N, q) is an
// error, never a panic.
func NewTable(n int, q uint64) (*Table, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: N=%d is not a power of two ≥ 2", n)
	}
	if err := mod.CheckModulus(q); err != nil {
		return nil, fmt.Errorf("ntt: %w", err)
	}
	if (q-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("ntt: q=%d is not ≡ 1 mod 2N=%d", q, 2*n)
	}
	m := mod.NewModulus(q)
	psi, err := m.MinimalPrimitiveRoot(uint64(2 * n))
	if err != nil {
		return nil, err
	}
	t := &Table{
		N:      n,
		LogN:   bits.Len(uint(n)) - 1,
		Mod:    m,
		Psi:    psi,
		PsiInv: m.Inv(psi),
		W:      make([]uint64, n),
		WShoup: make([]uint64, n),
	}
	pow := uint64(1)
	for i := 0; i < n; i++ {
		r := brev(uint(i), t.LogN)
		t.W[r], t.WShoup[r] = pow, mod.ShoupConst(pow, q)
		pow = m.Mul(pow, psi)
	}
	nInv := m.Inv(uint64(n))
	t.NInv, t.nInv, t.w1NInv = m.MForm(nInv), nInv, m.Mul(t.W[1], nInv)
	t.nInvShoup, t.w1NInvShoup = mod.ShoupConst(nInv, q), mod.ShoupConst(t.w1NInv, q)
	return t, nil
}

// MustTable is NewTable that panics on error (for fixed, known-good params).
func MustTable(n int, q uint64) *Table {
	t, err := NewTable(n, q)
	if err != nil {
		panic(err)
	}
	return t
}

// brev reverses the low `width` bits of v.
func brev(v uint, width int) uint {
	return uint(bits.Reverse64(uint64(v)) >> (64 - uint(width)))
}

// BitReverse permutes a in place by bit-reversed index. Exposed because the
// streaming pipeline emits bit-reversed order and the MSE reorders on the
// way to the scratchpad.
func BitReverse(a []uint64) {
	logN := bits.Len(uint(len(a))) - 1
	for i := range a {
		j := int(brev(uint(i), logN))
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
}
