// Package prng implements the on-chip pseudo-random number generator that
// ABC-FHE uses to synthesize masks, errors and keys on the fly (paper
// §III/§IV-B): a ChaCha stream cipher keyed by a 128-bit seed, plus the
// three samplers client-side CKKS needs — uniform residues, ternary
// secrets, and discrete-Gaussian errors (σ = 3.2).
//
// The paper's point is architectural: holding a 128-bit seed on chip
// replaces 8.25 MB of precomputed masks/errors in DRAM, and the PRNG
// keeps up with the streaming datapath. This package is the functional
// model; internal/sim prices its hardware throughput, internal/hw its area.
package prng

import (
	"encoding/binary"
	"math/bits"
)

// chacha implements the ChaCha block function with the original 128-bit-key
// parameterization (Bernstein's "expand 16-byte k" constants, the key
// repeated into both key halves). 20 rounds.
type chacha struct {
	state [16]uint32
	ks    [16]uint32 // keystream block, little-endian word order
	used  int        // words of ks already consumed; 16 → refill needed
	ctr   uint64
}

// sigma16 is the "expand 16-byte k" constant of the 128-bit-key ChaCha
// variant.
var sigma16 = [4]uint32{0x61707865, 0x3120646e, 0x79622d36, 0x6b206574}

// init keys c as a ChaCha stream from a 128-bit seed and a 64-bit stream
// identifier (ChaCha nonce), so that independent generator instances (one
// per sampled polynomial, mirroring the paper's per-object seeds) never
// overlap.
func (c *chacha) init(seed [16]byte, stream uint64) {
	c.used = 16
	c.state[0], c.state[1], c.state[2], c.state[3] = sigma16[0], sigma16[1], sigma16[2], sigma16[3]
	k0 := binary.LittleEndian.Uint32(seed[0:4])
	k1 := binary.LittleEndian.Uint32(seed[4:8])
	k2 := binary.LittleEndian.Uint32(seed[8:12])
	k3 := binary.LittleEndian.Uint32(seed[12:16])
	// 128-bit key occupies both key rows (k, k).
	c.state[4], c.state[5], c.state[6], c.state[7] = k0, k1, k2, k3
	c.state[8], c.state[9], c.state[10], c.state[11] = k0, k1, k2, k3
	// counter in [12,13], stream id in [14,15]
	c.state[12], c.state[13] = 0, 0
	c.state[14] = uint32(stream)
	c.state[15] = uint32(stream >> 32)
}

func quarter(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 16)
	c += d
	b ^= c
	b = bits.RotateLeft32(b, 12)
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 8)
	c += d
	b ^= c
	b = bits.RotateLeft32(b, 7)
	return a, b, c, d
}

// block produces the next keystream block into c.ks. The working state
// lives in locals for the 20 rounds, so the compiler keeps it in
// registers instead of round-tripping an array through memory.
func (c *chacha) block() {
	st := &c.state
	x0, x1, x2, x3 := st[0], st[1], st[2], st[3]
	x4, x5, x6, x7 := st[4], st[5], st[6], st[7]
	x8, x9, x10, x11 := st[8], st[9], st[10], st[11]
	x12, x13, x14, x15 := st[12], st[13], st[14], st[15]
	for i := 0; i < 10; i++ { // 20 rounds = 10 double-rounds
		// column round
		x0, x4, x8, x12 = quarter(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarter(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarter(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarter(x3, x7, x11, x15)
		// diagonal round
		x0, x5, x10, x15 = quarter(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarter(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarter(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarter(x3, x4, x9, x14)
	}
	c.ks = [16]uint32{
		x0 + st[0], x1 + st[1], x2 + st[2], x3 + st[3],
		x4 + st[4], x5 + st[5], x6 + st[6], x7 + st[7],
		x8 + st[8], x9 + st[9], x10 + st[10], x11 + st[11],
		x12 + st[12], x13 + st[13], x14 + st[14], x15 + st[15],
	}
	c.used = 0
	// 64-bit block counter in words 12/13.
	c.ctr++
	st[12] = uint32(c.ctr)
	st[13] = uint32(c.ctr >> 32)
}

// Source is a deterministic random stream with a 128-bit seed. It is NOT
// safe for concurrent use; create one Source per goroutine / per sampled
// object (cheap: the ChaCha state lives in the struct, and NewSource
// inlines, so a Source that does not escape its caller is not allocated).
type Source struct {
	c chacha
}

// NewSource creates a stream from seed and a stream/domain identifier.
// Equal (seed, stream) pairs yield identical streams — the property the
// accelerator exploits to regenerate, rather than store, public randomness.
func NewSource(seed [16]byte, stream uint64) *Source {
	s := new(Source)
	s.c.init(seed, stream)
	return s
}

// SeedFromUint64s is a convenience for tests and examples.
func SeedFromUint64s(lo, hi uint64) [16]byte {
	var s [16]byte
	binary.LittleEndian.PutUint64(s[0:8], lo)
	binary.LittleEndian.PutUint64(s[8:16], hi)
	return s
}

// Uint64 returns the next 64 bits of keystream: the next word pair, low
// word first (the little-endian reading of the block's bytes).
func (s *Source) Uint64() uint64 {
	c := &s.c
	if c.used > 16-2 {
		// A ragged last word (after an odd number of Uint32 reads) is
		// discarded, so Uint64 never straddles two blocks.
		c.block()
	}
	v := uint64(c.ks[c.used]) | uint64(c.ks[c.used+1])<<32
	c.used += 2
	return v
}

// Uint32 returns the next 32 bits of keystream.
func (s *Source) Uint32() uint32 {
	c := &s.c
	if c.used > 16-1 {
		c.block()
	}
	v := c.ks[c.used]
	c.used++
	return v
}

// Float64 returns a uniform float in [0,1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
