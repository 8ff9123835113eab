// Package rns implements residue-number-system machinery for CKKS: the
// decomposition of big-integer polynomial coefficients into word-sized
// limbs (the "Expand RNS" stage of the encode pipeline, paper Fig. 2a) and
// the Chinese-remainder reconstruction used on decode ("Combine CRT").
//
// The paper's configuration uses the double-scale technique [1]: 36-bit
// primes with the number of limbs doubled (24 limbs standing in for 12
// ~72-bit levels), keeping the hardware datapath at 44 bits.
//
// Reconstruction comes in two forms: the exact big.Int path
// (CombineCentered — the reference oracle, now running on pooled scratch)
// and the allocation-free word-arithmetic path the decode hot loop uses
// (CombineCenteredFloatScratch, see fastcrt.go).
package rns

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/mod"
)

// Basis is an RNS basis: a list of pairwise-coprime word-sized primes with
// the constants needed for expansion and CRT reconstruction. All fields
// are immutable after NewBasis and the scratch pool is internally
// synchronized, so a Basis is safe for concurrent use. Always share a
// Basis by pointer (it owns a sync.Pool).
type Basis struct {
	Moduli []mod.Modulus
	Q      *big.Int // product of all moduli

	// CRT reconstruction: qiHat[i] = Q/qi, qiHatInv[i] = (Q/qi)^{-1} mod qi.
	qiHat    []*big.Int
	qiHatInv []uint64
	halfQ    *big.Int // Q/2, for centered lifts

	fast *fastCRT // word-level tables for the allocation-free combine

	scratch sync.Pool // *bigScratch, reused by the exact big.Int paths
}

// bigScratch is the reusable temporary set of the exact paths. Each
// big.Int grows to its steady-state capacity on first use and is then
// recycled through the basis pool, so ExpandBig/CombineCentered stop
// churning the GC on every call.
type bigScratch struct {
	term big.Int
	quo  big.Int
	rem  big.Int
}

// NewBasis builds a basis from the given primes (all distinct, odd).
func NewBasis(primes []uint64) (*Basis, error) {
	if len(primes) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	seen := map[uint64]bool{}
	b := &Basis{Q: big.NewInt(1)}
	for _, q := range primes {
		if seen[q] {
			return nil, fmt.Errorf("rns: duplicate modulus %d", q)
		}
		seen[q] = true
		b.Moduli = append(b.Moduli, mod.NewModulus(q))
		b.Q.Mul(b.Q, new(big.Int).SetUint64(q))
	}
	b.qiHat = make([]*big.Int, len(primes))
	b.qiHatInv = make([]uint64, len(primes))
	for i, m := range b.Moduli {
		b.qiHat[i] = new(big.Int).Quo(b.Q, new(big.Int).SetUint64(m.Q))
		hatMod := new(big.Int).Mod(b.qiHat[i], new(big.Int).SetUint64(m.Q)).Uint64()
		b.qiHatInv[i] = m.Inv(hatMod)
	}
	b.halfQ = new(big.Int).Rsh(b.Q, 1)
	b.fast = newFastCRT(b)
	b.scratch.New = func() any { return new(bigScratch) }
	return b, nil
}

// MustBasis panics on error.
func MustBasis(primes []uint64) *Basis {
	b, err := NewBasis(primes)
	if err != nil {
		panic(err)
	}
	return b
}

// K returns the number of limbs.
func (b *Basis) K() int { return len(b.Moduli) }

// Primes returns the raw prime values.
func (b *Basis) Primes() []uint64 {
	out := make([]uint64, b.K())
	for i, m := range b.Moduli {
		out[i] = m.Q
	}
	return out
}

// Sub returns the prefix sub-basis with the first k limbs — how CKKS
// levels shrink: a level-l ciphertext lives in the first l limbs. Each
// call builds the sub-basis's CRT and fast-combine tables afresh (k ==
// K() returns b itself), so callers keep the views they use on hot
// paths: ckks.Parameters builds one ring view per level, once.
func (b *Basis) Sub(k int) *Basis {
	if k < 1 || k > b.K() {
		panic("rns: sub-basis size out of range")
	}
	if k == b.K() {
		return b
	}
	return MustBasis(b.Primes()[:k])
}

// ExpandInt64 reduces a signed value into every limb.
func (b *Basis) ExpandInt64(v int64, out []uint64) {
	for i, m := range b.Moduli {
		out[i] = m.FromCentered(v)
	}
}

// ExpandBig reduces a signed big integer into every limb (centered
// semantics: negative values wrap to q - |v| mod q).
func (b *Basis) ExpandBig(v *big.Int, out []uint64) {
	sc := b.scratch.Get().(*bigScratch)
	mw, quo, rem := &sc.term, &sc.quo, &sc.rem
	for i, m := range b.Moduli {
		// QuoRem instead of Mod: all three big.Ints come from the pooled
		// scratch and keep their grown capacity, so the per-limb divisions
		// stop allocating in steady state. The truncated remainder carries
		// v's sign; FromCentered restores the non-negative representative.
		mw.SetUint64(m.Q)
		quo.QuoRem(v, mw, rem)
		out[i] = m.FromCentered(rem.Int64())
	}
	b.scratch.Put(sc)
}

// CombineCentered reconstructs the centered representative in
// (-Q/2, Q/2] of the residue vector limbs (one residue per limb). This is
// the exact reference path — the oracle the fast combine is verified
// against; only the returned big.Int is allocated.
func (b *Basis) CombineCentered(limbs []uint64) *big.Int {
	return b.CombineCenteredInto(new(big.Int), limbs)
}

// CombineCenteredInto is CombineCentered writing into out (returned for
// chaining). With a reused out it allocates nothing in steady state.
func (b *Basis) CombineCenteredInto(out *big.Int, limbs []uint64) *big.Int {
	if len(limbs) != b.K() {
		panic("rns: residue count mismatch")
	}
	sc := b.scratch.Get().(*bigScratch)
	term := &sc.term
	out.SetInt64(0)
	for i, m := range b.Moduli {
		// term = qiHat[i] * ((limb * qiHatInv[i]) mod qi)
		c := m.Mul(limbs[i]%m.Q, b.qiHatInv[i])
		term.SetUint64(c)
		term.Mul(term, b.qiHat[i])
		out.Add(out, term)
	}
	out.Mod(out, b.Q)
	if out.Cmp(b.halfQ) > 0 {
		out.Sub(out, b.Q)
	}
	b.scratch.Put(sc)
	return out
}

// CombineCenteredFloatBig reconstructs the centered value exactly and
// converts it to float64 after dividing by scale — the big.Int/big.Float
// reference the fast path (CombineCenteredFloat, fastcrt.go) is tested
// against. Not for hot loops.
func (b *Basis) CombineCenteredFloatBig(limbs []uint64, scale float64) float64 {
	v := b.CombineCentered(limbs)
	f := new(big.Float).SetInt(v)
	f.Quo(f, big.NewFloat(scale))
	out, _ := f.Float64()
	return out
}
