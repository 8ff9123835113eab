package ckks

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ring"
)

// The row-block 44-bit codec under every packed wire format (ciphertext,
// seeded ciphertext, public/secret key, evaluation keys) — the software
// twin of the accelerator's 44-bit datapath word. This file owns the
// packing geometry: every blob size goes through packedBytes, and
// checkLimbBits is the one limb-width rule.
//
// The packed stream is little-endian in bits: residue k of a payload sits
// at bits [44k, 44k+44). ParamSpec.Validate pins LogN ≥ 4, so N is a
// multiple of 16, and 16 residues are exactly 88 bytes = 11 little-endian
// uint64 words: a limb row is N/16 fixed shift-and-or blocks with no bit
// state carried between them, and row i of a payload starts on the byte
// boundary i·N·44/8. Rows are therefore independent, and packRows /
// unpackRows fan them across the ring's lanes with bytes that cannot
// depend on the worker count.

// PackedWordBits is the hardware stream word width.
const PackedWordBits = 44

const (
	packBlockCoeffs = 16
	packBlockBytes  = packBlockCoeffs * PackedWordBits / 8 // 88 = 11 words
	packMask        = uint64(1)<<PackedWordBits - 1
)

// packedBytes is the packed size of `rows` limb rows of n residues. N ≥ 16
// makes every row a whole number of bytes.
func packedBytes(rows, n int) int { return rows * n * PackedWordBits / 8 }

// checkLimbBits rejects limbs wider than the packed word: no residue of
// such a prime chain is guaranteed to fit 44 bits.
func checkLimbBits(limbBits int) error {
	if limbBits > PackedWordBits {
		return fmt.Errorf("packed encoding needs limbs ≤ %d bits, got %d", PackedWordBits, limbBits)
	}
	return nil
}

// packRow packs row (len a multiple of 16) into dst (len(row)·44/8 bytes)
// and returns the OR of every residue, so the caller can tell whether one
// did not fit the packed word.
func packRow(dst []byte, row []uint64) (or uint64) {
	le := binary.LittleEndian
	for len(row) >= packBlockCoeffs {
		c, d := row[:packBlockCoeffs:packBlockCoeffs], dst[:packBlockBytes:packBlockBytes]
		le.PutUint64(d[0:], c[0]|c[1]<<44)
		le.PutUint64(d[8:], c[1]>>20|c[2]<<24)
		le.PutUint64(d[16:], c[2]>>40|c[3]<<4|c[4]<<48)
		le.PutUint64(d[24:], c[4]>>16|c[5]<<28)
		le.PutUint64(d[32:], c[5]>>36|c[6]<<8|c[7]<<52)
		le.PutUint64(d[40:], c[7]>>12|c[8]<<32)
		le.PutUint64(d[48:], c[8]>>32|c[9]<<12|c[10]<<56)
		le.PutUint64(d[56:], c[10]>>8|c[11]<<36)
		le.PutUint64(d[64:], c[11]>>28|c[12]<<16|c[13]<<60)
		le.PutUint64(d[72:], c[13]>>4|c[14]<<40)
		le.PutUint64(d[80:], c[14]>>24|c[15]<<20)
		or |= c[0] | c[1] | c[2] | c[3] | c[4] | c[5] | c[6] | c[7] |
			c[8] | c[9] | c[10] | c[11] | c[12] | c[13] | c[14] | c[15]
		row, dst = row[packBlockCoeffs:], dst[packBlockBytes:]
	}
	return or
}

// unpackRow reverses packRow and reports whether every residue is below q
// (q ≤ 2^44): q-1-c borrows into the top bit exactly when c ≥ q, so the
// range check is one subtract-and-or per residue in the same pass.
func unpackRow(row []uint64, src []byte, q uint64) bool {
	le := binary.LittleEndian
	qm1, bad := q-1, uint64(0)
	for len(row) >= packBlockCoeffs {
		c, s := row[:packBlockCoeffs:packBlockCoeffs], src[:packBlockBytes:packBlockBytes]
		w0, w1, w2, w3 := le.Uint64(s[0:]), le.Uint64(s[8:]), le.Uint64(s[16:]), le.Uint64(s[24:])
		w4, w5, w6, w7 := le.Uint64(s[32:]), le.Uint64(s[40:]), le.Uint64(s[48:]), le.Uint64(s[56:])
		w8, w9, w10 := le.Uint64(s[64:]), le.Uint64(s[72:]), le.Uint64(s[80:])
		c[0] = w0 & packMask
		c[1] = (w0>>44 | w1<<20) & packMask
		c[2] = (w1>>24 | w2<<40) & packMask
		c[3] = w2 >> 4 & packMask
		c[4] = (w2>>48 | w3<<16) & packMask
		c[5] = (w3>>28 | w4<<36) & packMask
		c[6] = w4 >> 8 & packMask
		c[7] = (w4>>52 | w5<<12) & packMask
		c[8] = (w5>>32 | w6<<32) & packMask
		c[9] = w6 >> 12 & packMask
		c[10] = (w6>>56 | w7<<8) & packMask
		c[11] = (w7>>36 | w8<<28) & packMask
		c[12] = w8 >> 16 & packMask
		c[13] = (w8>>60 | w9<<4) & packMask
		c[14] = (w9>>40 | w10<<24) & packMask
		c[15] = w10 >> 20
		bad |= (qm1 - c[0]) | (qm1 - c[1]) | (qm1 - c[2]) | (qm1 - c[3]) |
			(qm1 - c[4]) | (qm1 - c[5]) | (qm1 - c[6]) | (qm1 - c[7]) |
			(qm1 - c[8]) | (qm1 - c[9]) | (qm1 - c[10]) | (qm1 - c[11]) |
			(qm1 - c[12]) | (qm1 - c[13]) | (qm1 - c[14]) | (qm1 - c[15])
		row, src = row[packBlockCoeffs:], src[packBlockBytes:]
	}
	return bad>>63 == 0
}

// codecRows is the residue rows packRows reads and unpackRows fills, in
// wire order: word rows in place (wordRows) or the narrow rows switching
// keys are resident in (narrowRows). Both run the block codec above.
type codecRows interface {
	count() int
	// pack packs row i into dst and reports whether it is len(dst)·8/44
	// residues, each below 2^44.
	pack(i int, dst []byte) bool
	// unpack fills row i from src and reports whether every residue is
	// below q. A row that is not is left partly written.
	unpack(i int, src []byte, q uint64) bool
}

// wordRows is a list of residue rows held as words.
type wordRows [][]uint64

func (w wordRows) count() int { return len(w) }

func (w wordRows) pack(i int, dst []byte) bool {
	return packedBytes(1, len(w[i])) == len(dst) && packRow(dst, w[i])>>PackedWordBits == 0
}

func (w wordRows) unpack(i int, src []byte, q uint64) bool { return unpackRow(w[i], src, q) }

// narrowRows lists the first `limbs` limb rows of each narrow polynomial
// in wire order. Rows pass through the codec in tiles of narrowTile
// residues decoded on the stack.
type narrowRows struct {
	polys []ring.NarrowPoly
	limbs int
}

// narrowTile is a multiple of the 16-residue block, so tile boundaries
// fall on packed block boundaries.
const narrowTile = 256

func (nr narrowRows) count() int { return len(nr.polys) * nr.limbs }

func (nr narrowRows) pack(i int, dst []byte) bool {
	np, limb := &nr.polys[i/nr.limbs], i%nr.limbs
	var tile [narrowTile]uint64
	var or uint64
	for off := 0; len(dst) > 0; off += narrowTile {
		c := min(narrowTile, len(dst)*8/PackedWordBits)
		np.Load(limb, off, tile[:c])
		or |= packRow(dst, tile[:c])
		dst = dst[packedBytes(1, c):]
	}
	return or>>PackedWordBits == 0
}

func (nr narrowRows) unpack(i int, src []byte, q uint64) bool {
	np, limb := &nr.polys[i/nr.limbs], i%nr.limbs
	var tile [narrowTile]uint64
	for off := 0; len(src) > 0; off += narrowTile {
		c := min(narrowTile, len(src)*8/PackedWordBits)
		if !unpackRow(tile[:c], src, q) {
			return false
		}
		np.Store(limb, off, tile[:c])
		src = src[packedBytes(1, c):]
	}
	return true
}

// packRows packs row i of rows at dst[i·N·44/8:], one lane task per row.
// Row i is a residue row of limb i mod r.K() — every packed payload is a
// sequence of whole polynomials over r, packed in the domain it sits in.
// A ring with a prime wider than the packed word is refused outright. A
// row of the wrong length or holding a residue ≥ 2^44 cannot be
// represented and is an error naming the lowest such row — found by index
// after the dispatch, so it is the same at any worker count or schedule.
func packRows(r *ring.Ring, dst []byte, rows codecRows) error {
	for _, m := range r.Basis.Moduli {
		if err := checkLimbBits(bits.Len64(m.Q)); err != nil {
			return fmt.Errorf("ckks: marshal: %w", err)
		}
	}
	n := r.N
	rowBytes := packedBytes(1, n)
	bad := make([]bool, rows.count())
	r.Engine().Run(len(bad), func(i int) {
		bad[i] = !rows.pack(i, dst[i*rowBytes:(i+1)*rowBytes])
	})
	if i := slices.Index(bad, true); i >= 0 {
		return fmt.Errorf("ckks: marshal: limb row %d (q_%d) is not %d residues below 2^%d", i, i%r.K(), n, PackedWordBits)
	}
	return nil
}

// unpackRows reverses packRows into rows (each of r.N residues), comparing
// every residue with its limb's modulus in the same pass. The error names
// the lowest offending row in wire order and its first residue ≥ q.
func unpackRows(r *ring.Ring, src []byte, rows codecRows) error {
	n, k := r.N, r.K()
	rowBytes := packedBytes(1, n)
	bad := make([]bool, rows.count())
	r.Engine().Run(len(bad), func(i int) {
		bad[i] = !rows.unpack(i, src[i*rowBytes:(i+1)*rowBytes], r.Basis.Moduli[i%k].Q)
	})
	if i := slices.Index(bad, true); i >= 0 {
		q := r.Basis.Moduli[i%k].Q
		row := make([]uint64, n)
		unpackRow(row, src[i*rowBytes:(i+1)*rowBytes], q)
		j := slices.IndexFunc(row, func(c uint64) bool { return c >= q })
		return fmt.Errorf("residue %d ≥ q_%d (limb row %d)", row[j], i%k, i)
	}
	return nil
}

// polyRows lists the first `limbs` residue rows of each polynomial in
// wire order — the row list packRows / unpackRows take.
func polyRows(limbs int, polys ...*ring.Poly) wordRows {
	rows := make(wordRows, 0, limbs*len(polys))
	for _, poly := range polys {
		rows = append(rows, poly.Coeffs[:limbs]...)
	}
	return rows
}
