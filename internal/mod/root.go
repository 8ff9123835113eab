package mod

import "fmt"

// PrimitiveRootOfUnity returns an element ψ of Z_q with exact multiplicative
// order `order`, where order must be a power of two dividing q-1.
//
// The search is deterministic: candidates g = 2, 3, 4, … are raised to
// (q-1)/order; the first result whose order is exactly `order` (verified by
// checking ψ^(order/2) = -1) is returned. For NTT moduli the density of
// generators makes this terminate after a handful of candidates.
func (m Modulus) PrimitiveRootOfUnity(order uint64) (uint64, error) {
	if order == 0 || order&(order-1) != 0 {
		return 0, fmt.Errorf("mod: order %d is not a power of two", order)
	}
	if (m.Q-1)%order != 0 {
		return 0, fmt.Errorf("mod: order %d does not divide q-1 = %d", order, m.Q-1)
	}
	if order == 1 {
		return 1, nil
	}
	exp := (m.Q - 1) / order
	for g := uint64(2); g < m.Q; g++ {
		psi := m.Pow(g, exp)
		// ψ has order dividing `order` (a power of two); the order is
		// exactly `order` iff ψ^(order/2) = -1 mod q.
		if m.Pow(psi, order/2) == m.Q-1 {
			return psi, nil
		}
	}
	return 0, fmt.Errorf("mod: no primitive %d-th root found for q=%d", order, m.Q)
}

// MinimalPrimitiveRoot returns the smallest ψ (as an integer) of exact order
// `order`. Useful to make twiddle tables reproducible across runs; the
// on-the-fly twiddle generator seeds (internal/core/pnl) are derived from
// it.
func (m Modulus) MinimalPrimitiveRoot(order uint64) (uint64, error) {
	psi, err := m.PrimitiveRootOfUnity(order)
	if err != nil {
		return 0, err
	}
	// All primitive roots are ψ^j for odd j; enumerate to find the minimum.
	// order is at most 2^17 in this repository, so the scan is cheap
	// relative to table construction, and is only run at setup time.
	minRoot := psi
	cur := psi
	psiSq := m.Mul(psi, psi)
	for j := uint64(3); j < order; j += 2 {
		cur = m.Mul(cur, psiSq)
		if cur < minRoot {
			minRoot = cur
		}
	}
	return minRoot, nil
}
