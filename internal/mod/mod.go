// Package mod implements arithmetic over 64-bit prime fields Z_q.
//
// It is the scalar substrate under every other package in this repository:
// the NTT (internal/ntt), the RNS machinery (internal/rns), the CKKS client
// (internal/ckks) and the hardware modular-multiplier models
// (internal/modmul) all reduce to the primitives defined here.
//
// Three reduction strategies are provided, mirroring the three hardware
// designs discussed in the ABC-FHE paper (Table I):
//
//   - generic 128-bit division (bits.Div64) — the "obviously correct"
//     reference used by tests,
//   - Barrett reduction with a precomputed 2^128/q constant, and
//   - Montgomery multiplication with R = 2^64.
//
// All moduli are required to be odd primes strictly below 2^62 so that every
// intermediate fits comfortably in the lazy ranges used by callers.
package mod

import (
	"fmt"
	"math/big"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width. CKKS RNS limbs in
// this repository are 36-bit (the paper's double-scale configuration), but
// the arithmetic supports anything below 2^62.
const MaxModulusBits = 62

// LazyTerms is how many products of two residues may be summed in 128 bits
// per Barrett reduction: every q is below 2^MaxModulusBits, so LazyTerms·q
// ≤ 2^64 and that many products, each < q², sum below q·2^64 — the
// reduction's domain (rns.Extender.CombineLimb, ring.MulPairRows).
const LazyTerms = 1 << (64 - MaxModulusBits)

// MulAdd128 adds a·b to the 128-bit accumulator (hi, lo). The caller keeps
// the sum inside 128 bits (see LazyTerms).
func MulAdd128(hi, lo, a, b uint64) (uint64, uint64) {
	phi, plo := bits.Mul64(a, b)
	lo, carry := bits.Add64(lo, plo, 0)
	return hi + phi + carry, lo
}

// Reduce128 is BarrettReduce128 for the row kernels: (hi·2^64 + lo) mod q
// for values < q·2^64, the constant ⌊2^128/q⌋ = bhi·2^64 + blo passed in so
// loops keep it in registers. Dropping the lo·blo partial product (which
// lets the function inline) leaves the quotient estimate short by at most
// 2, so two conditional subtractions land on the canonical residue.
func Reduce128(hi, lo, q, bhi, blo uint64) uint64 {
	c1hi, c1lo := bits.Mul64(lo, bhi)
	c2hi, c2lo := bits.Mul64(hi, blo)
	_, carry := bits.Add64(c1lo, c2lo, 0)
	r := lo - (hi*bhi+c1hi+c2hi+carry)*q
	if r >= q {
		r -= q
	}
	if r >= q {
		r -= q
	}
	return r
}

// ShoupConst is the Shoup companion ⌊w·2^64/q⌋ of a fixed multiplicand
// w < q, the constant MulShoupLazy takes.
func ShoupConst(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q)
	return quo
}

// MulShoupLazy returns w·y mod q in [0, 2q) for any 64-bit y, given ws =
// ShoupConst(w, q): ws falls short of w·2^64/q by less than one and y <
// 2^64, so hi(y·ws) undershoots ⌊w·y/q⌋ by at most one. One high and two
// low multiplies; the lazy NTT butterflies (internal/ntt) run on it.
func MulShoupLazy(y, w, ws, q uint64) uint64 {
	hi, _ := bits.Mul64(y, ws)
	return w*y - hi*q
}

// Modulus bundles a prime q with every precomputed constant needed for fast
// reduction. A Modulus is immutable after creation and safe for concurrent
// use.
type Modulus struct {
	Q    uint64 // the prime modulus
	Bits int    // bit length of Q

	// Barrett: BHi,BLo = floor(2^128 / Q), used to reduce 128-bit products.
	BHi, BLo uint64

	// Montgomery with R = 2^64:
	// QInv = -Q^{-1} mod 2^64, RSquare = (2^64)^2 mod Q, ROne = 2^64 mod Q.
	QInv    uint64
	RSquare uint64
	ROne    uint64
}

// CheckModulus returns the reason NewModulus would panic on q, or nil.
func CheckModulus(q uint64) error {
	if q < 3 || q&1 == 0 {
		return fmt.Errorf("mod: modulus %d must be an odd integer ≥ 3", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return fmt.Errorf("mod: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	return nil
}

// NewModulus precomputes all reduction constants for the odd modulus q.
// It panics if q is even, zero, one, or ≥ 2^62; primality is the caller's
// concern (see internal/primes).
func NewModulus(q uint64) Modulus {
	if err := CheckModulus(q); err != nil {
		panic(err.Error())
	}
	m := Modulus{Q: q, Bits: bits.Len64(q)}

	// floor(2^128 / q) via math/big (setup-time only).
	one28 := new(big.Int).Lsh(big.NewInt(1), 128)
	ratio := new(big.Int).Quo(one28, new(big.Int).SetUint64(q))
	lo := new(big.Int).And(ratio, new(big.Int).SetUint64(^uint64(0)))
	hi := new(big.Int).Rsh(ratio, 64)
	m.BLo = lo.Uint64()
	m.BHi = hi.Uint64()

	// Newton iteration for -q^{-1} mod 2^64: x_{k+1} = x_k (2 - q x_k).
	inv := q // correct mod 2^3 for odd q
	for i := 0; i < 5; i++ {
		inv *= 2 - q*inv
	}
	m.QInv = -inv

	r := new(big.Int).Lsh(big.NewInt(1), 64)
	r.Mod(r, new(big.Int).SetUint64(q))
	m.ROne = r.Uint64()
	r2 := new(big.Int).SetUint64(m.ROne)
	r2.Mul(r2, r2).Mod(r2, new(big.Int).SetUint64(q))
	m.RSquare = r2.Uint64()
	return m
}

// Add returns (a + b) mod q for a, b < q.
func (m Modulus) Add(a, b uint64) uint64 {
	c := a + b
	if c >= m.Q {
		c -= m.Q
	}
	return c
}

// Sub returns (a - b) mod q for a, b < q.
func (m Modulus) Sub(a, b uint64) uint64 {
	c := a - b
	if a < b {
		c += m.Q
	}
	return c
}

// Neg returns -a mod q for a < q.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Mul returns (a * b) mod q via a full 128-bit product and hardware
// division. This is the reference multiplication: slower than Barrett or
// Montgomery but unconditionally correct for a, b < q.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, m.Q)
	return rem
}

// BarrettMul returns (a*b) mod q using the precomputed 2^128/q constant.
// Inputs must be < q.
func (m Modulus) BarrettMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.BarrettReduce128(hi, lo)
}

// BarrettReduce128 reduces the 128-bit value hi·2^64 + lo modulo q.
// The value must be < q·2^64 (always true for products of residues).
func (m Modulus) BarrettReduce128(hi, lo uint64) uint64 {
	// quotient ≈ floor(x * (2^128/q) / 2^128); we only need the high word.
	// x = hi·2^64 + lo, B = BHi·2^64 + BLo.
	// x*B / 2^128 = hi*BHi + (hi*BLo + lo*BHi + carries) >> 64 ...
	mhi, _ := bits.Mul64(lo, m.BLo)
	c1hi, c1lo := bits.Mul64(lo, m.BHi)
	c2hi, c2lo := bits.Mul64(hi, m.BLo)
	mid, carry1 := bits.Add64(c1lo, c2lo, 0)
	mid, carry2 := bits.Add64(mid, mhi, 0)
	_ = mid
	qhat := hi*m.BHi + c1hi + c2hi + carry1 + carry2
	r := lo - qhat*m.Q
	// At most two correction steps.
	if r >= m.Q {
		r -= m.Q
	}
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MForm maps a < q into the Montgomery domain: returns a·2^64 mod q.
func (m Modulus) MForm(a uint64) uint64 {
	return m.MRedMul(a, m.RSquare)
}

// IForm maps a Montgomery-domain value back: returns a·2^{-64} mod q.
func (m Modulus) IForm(a uint64) uint64 {
	return m.MRedMul(a, 1)
}

// MRedMul returns a·b·2^{-64} mod q (a Montgomery multiplication). If b is
// kept in Montgomery form (b = b'·2^64 mod q) the result is a·b' mod q,
// which is how the NTT tables use it: twiddles are stored in M-form so a
// single MRedMul implements a plain modular multiplication.
func (m Modulus) MRedMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	w := lo * m.QInv
	mh, ml := bits.Mul64(w, m.Q)
	_, carry := bits.Add64(lo, ml, 0)
	r := hi + mh + carry
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// Pow returns a^e mod q by square-and-multiply.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % m.Q
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns a^{-1} mod q (q prime, a ≠ 0 mod q) via Fermat's little
// theorem. It panics on a ≡ 0.
func (m Modulus) Inv(a uint64) uint64 {
	if a%m.Q == 0 {
		panic("mod: inverse of zero")
	}
	return m.Pow(a, m.Q-2)
}

// Centered returns the centered representative of a in (-q/2, q/2].
func (m Modulus) Centered(a uint64) int64 {
	if a > m.Q/2 {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}

// FromCentered maps a signed value into [0, q).
func (m Modulus) FromCentered(v int64) uint64 {
	r := v % int64(m.Q)
	if r < 0 {
		r += int64(m.Q)
	}
	return uint64(r)
}
