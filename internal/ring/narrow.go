package ring

import "math/bits"

// Narrow resident rows. A residue of a chain whose widest prime has b bits
// needs b bits, not a 64-bit word, and the switching keys a server holds
// are its largest resident object (at PN14, 39 full-depth keys are 1.7 GB
// at 8 B per 36-bit residue). NarrowPoly keeps a polynomial's limb rows as
// a uint32 low plane plus a high plane holding the bits above 32: uint8
// when every prime of the ring is below 2^40 (5 B per residue — every
// preset), uint32 otherwise (8 B, e.g. a 61-bit chain). Both widths run
// the same generic row loops, and a row decodes to the canonical residues
// it was built from, so arithmetic over a narrow row is arithmetic over
// the words.

// narrowByteBits is the widest prime a uint8 high plane holds.
const narrowByteBits = 40

// NarrowResidueBytes is the resident size of one residue of a chain whose
// widest prime has limbBits bits.
func NarrowResidueBytes(limbBits int) int {
	if limbBits <= narrowByteBits {
		return 5
	}
	return 8
}

// NarrowPoly is a polynomial's limb rows at their chain's width. It holds
// residues only: the domain is the owner's to know. The zero value has no
// limbs.
type NarrowPoly struct {
	n    int
	lo   []uint32 // limb i at [i·n, (i+1)·n)
	hi8  []uint8  // the bits above 32 when every prime is < 2^40, else nil
	hi32 []uint32 // the bits above 32 otherwise
}

// NewNarrowPoly allocates a zero narrow polynomial with r.K() limbs, its
// high plane sized by r's widest prime.
func (r *Ring) NewNarrowPoly() NarrowPoly {
	words := r.K() * r.N
	np := NarrowPoly{n: r.N, lo: make([]uint32, words)}
	widest := 0
	for _, m := range r.Basis.Moduli {
		widest = max(widest, bits.Len64(m.Q))
	}
	if NarrowResidueBytes(widest) == 5 {
		np.hi8 = make([]uint8, words)
	} else {
		np.hi32 = make([]uint32, words)
	}
	return np
}

// Narrow returns p's first r.K() limbs as a narrow polynomial.
func (r *Ring) Narrow(p *Poly) NarrowPoly {
	np := r.NewNarrowPoly()
	for i := range r.K() {
		np.Store(i, 0, p.Coeffs[i])
	}
	return np
}

// Widen returns np as a word polynomial over r (IsNTT unset).
func (r *Ring) Widen(np *NarrowPoly) *Poly {
	p := r.NewPoly()
	for i, row := range p.Coeffs {
		np.Load(i, 0, row)
	}
	return p
}

// Bytes is np's resident size: both planes.
func (np *NarrowPoly) Bytes() int { return 4*len(np.lo) + len(np.hi8) + 4*len(np.hi32) }

// Load writes residues [off, off+len(dst)) of limb row `limb` into dst.
func (np *NarrowPoly) Load(limb, off int, dst []uint64) {
	at := limb*np.n + off
	if np.hi8 != nil {
		loadRow(np.lo[at:], np.hi8[at:], dst)
	} else {
		loadRow(np.lo[at:], np.hi32[at:], dst)
	}
}

// Store sets residues [off, off+len(src)) of limb row `limb` from src. A
// residue wider than the high plane is a caller bug: the ring's primes
// bound every canonical residue.
func (np *NarrowPoly) Store(limb, off int, src []uint64) {
	at := limb*np.n + off
	var or uint64
	if np.hi8 != nil {
		or = storeRow(np.lo[at:], np.hi8[at:], src) >> narrowByteBits
	} else {
		storeRow(np.lo[at:], np.hi32[at:], src)
	}
	if or != 0 {
		panic("ring: residue wider than the narrow row's high plane")
	}
}

// loadRow is the one decode loop of both widths: dst[j] = lo[j] | hi[j]<<32.
func loadRow[H uint8 | uint32](lo []uint32, hi []H, dst []uint64) {
	lo, hi = lo[:len(dst)], hi[:len(dst)]
	for j := range dst {
		dst[j] = uint64(lo[j]) | uint64(hi[j])<<32
	}
}

// storeRow splits src into lo and hi and returns the OR of every residue.
func storeRow[H uint8 | uint32](lo []uint32, hi []H, src []uint64) (or uint64) {
	lo, hi = lo[:len(src)], hi[:len(src)]
	for j, v := range src {
		lo[j], hi[j] = uint32(v), H(v>>32)
		or |= v
	}
	return or
}
