package ckks

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/prng"
	"repro/internal/ring"
)

// Seeded ciphertexts: an extension the paper's on-chip PRNG architecture
// makes natural. In a fresh symmetric-style encryption the second
// component c1 can be a *publicly derivable* uniform polynomial — so the
// client transmits only (c0, seed) and the server regenerates c1 from the
// 16-byte seed, halving the client→server ciphertext traffic (and with
// it the DRAM write stream that bounds ABC-FHE's encode throughput at 8
// lanes; see the ablation `abcbench -exp seeded` and examples/seeded).
//
// Construction (secret-key encryption, the standard seeded form):
//
//	a   = Uniform(seed, stream)        — in the NTT domain
//	c0  = -a·s + e + m
//	ct  = (c0, a), transmitted as (c0, seed)
//
// Fresh uploads from the key owner do not need the public key, so this
// composes with the client-side flow the paper accelerates.

// SeededCiphertext is the compressed wire form: c0 plus the PRNG
// coordinates that regenerate c1.
type SeededCiphertext struct {
	C0     *ring.Poly // coefficient domain
	Seed   [16]byte
	Stream uint64
	Level  int
	Scale  float64
}

// SeededEncryptor performs secret-key seeded encryption. The call counter
// is atomic, so one instance can encrypt from many goroutines.
//
// Two seeds are in play, both PRF-derived from the caller's root seed by
// the constructor (the root seed itself is never stored here and never
// reaches the wire): maskSeed regenerates the public masks and is
// transmitted with every upload; errSeed drives the Gaussian error and
// is never transmitted — if the error were derivable from the wire
// bytes, every upload would collapse to an errorless RLWE sample.
type SeededEncryptor struct {
	params   *Parameters
	sk       *SecretKey
	maskSeed [16]byte // on the wire with every upload
	errSeed  [16]byte // private: error randomness
	calls    atomic.Uint64
}

// NewSeededEncryptor builds a seeded encryptor from the caller's root
// seed (mask and error seeds are derived internally — see the type doc).
func NewSeededEncryptor(params *Parameters, sk *SecretKey, seed [16]byte) *SeededEncryptor {
	return NewSeededEncryptorAt(params, sk, seed, 0)
}

// NewSeededEncryptorAt is NewSeededEncryptor with the stream counter
// starting at base instead of 0. A (seed, stream) pair must never
// encrypt twice — c0 − c0' would equal the plaintext difference with no
// noise — so callers that cannot persist the counter across processes
// (key-owner restart or migration, where the seed is fixed by the key
// blob) pass a fresh random base per instance. The stream coordinate
// travels in the wire form, so servers expand either way. The derived
// mask/err seeds have no other consumers, so the full stream space is
// available; base is clamped below 2^62 to keep counters overflow-free.
func NewSeededEncryptorAt(params *Parameters, sk *SecretKey, seed [16]byte, base uint64) *SeededEncryptor {
	se := &SeededEncryptor{
		params:   params,
		sk:       sk,
		maskSeed: DeriveUploadSeed(seed),
		errSeed:  deriveUploadErrorSeed(seed),
	}
	se.calls.Store(base & (1<<62 - 1))
	return se
}

// maskStreamBase domain-separates public mask streams from every other
// consumer of the seed (keys use 1..3, encryptor randomness 16k+).
const maskStreamBase uint64 = 1 << 40

// regenMask deterministically fills a with the public mask
// Uniform(seed, stream), read directly as NTT-domain residues. It is the
// one mask sampler of the seeded forms: upload masks (c1) and
// evaluation-key masks (each switching-key row's a_j) alike. Every word of
// a is overwritten, so pooled uninitialized scratch is fine.
func regenMask(r *ring.Ring, seed [16]byte, stream uint64, a *ring.Poly) {
	r.UniformPoly(prng.NewSource(seed, stream), a)
	a.IsNTT = true
}

// Encrypt produces a seeded encryption of pt.
func (se *SeededEncryptor) Encrypt(pt *Plaintext) *SeededCiphertext {
	p := se.params
	level := pt.Level
	rl := p.RingAt(level)
	stream := maskStreamBase + se.calls.Add(1)

	a := rl.GetPolyUninit()
	regenMask(rl, se.maskSeed, stream, a)
	sk := &ring.Poly{Coeffs: se.sk.S.Coeffs[:level], IsNTT: true}

	c0 := rl.GetPolyUninit() // MulCoeffs fully overwrites
	rl.MulCoeffs(a, sk, c0)  // a·s
	rl.Neg(c0, c0)           // -a·s
	rl.INTT(c0)
	rl.PutPoly(a)

	e := rl.GetPolyUninit() // sampler fully overwrites
	rl.GaussianPoly(prng.NewSource(se.errSeed, stream), e)
	rl.Add(c0, e, c0)
	rl.PutPoly(e)
	if pt.Value.IsNTT {
		panic("ckks: plaintext must be in coefficient domain")
	}
	rl.Add(c0, pt.Value, c0)

	return &SeededCiphertext{
		C0: c0, Seed: se.maskSeed, Stream: stream,
		Level: level, Scale: pt.Scale,
	}
}

// Expand reconstructs the full two-component ciphertext (what the server
// does on receipt): c1 is regenerated from the seed and moved to the
// coefficient domain to match the standard wire convention.
func (p *Parameters) Expand(sct *SeededCiphertext) *Ciphertext {
	rl := p.RingAt(sct.Level)
	a := rl.GetPolyUninit()
	regenMask(rl, sct.Seed, sct.Stream, a)
	rl.INTT(a)
	return &Ciphertext{
		C0:    rl.CopyPoly(sct.C0),
		C1:    a,
		Level: sct.Level,
		Scale: sct.Scale,
	}
}

// MarshalSeeded serializes the compressed form: header | seed | stream |
// packed c0. Roughly half the bytes of a full ciphertext.
func (p *Parameters) MarshalSeeded(sct *SeededCiphertext) ([]byte, error) {
	var prefix [seedMaterialLen]byte
	copy(prefix[:], sct.Seed[:])
	binary.LittleEndian.PutUint64(prefix[16:], sct.Stream)
	return p.marshalCt(formSeeded, sct.Level, sct.Scale, prefix[:], sct.C0)
}

// UnmarshalSeeded reverses MarshalSeeded.
func (p *Parameters) UnmarshalSeeded(data []byte) (*SeededCiphertext, error) {
	level, scale, err := p.readCtHeader(data, formSeeded)
	if err != nil {
		return nil, fmt.Errorf("ckks: unmarshal seeded: %w", err)
	}
	sct := &SeededCiphertext{Level: level, Scale: scale}
	copy(sct.Seed[:], data[ctHeaderLen:])
	sct.Stream = binary.LittleEndian.Uint64(data[ctHeaderLen+16:])

	rl := p.RingAt(level)
	sct.C0 = rl.NewPoly()
	if err := unpackRows(rl, data[ctHeaderLen+seedMaterialLen:], wordRows(sct.C0.Coeffs)); err != nil {
		return nil, fmt.Errorf("ckks: unmarshal seeded: %w", err)
	}
	return sct, nil
}

// SeededWireBytes is the compressed wire size at a level — half the
// polynomial payload of the full form plus 24 bytes of seed material.
func (p *Parameters) SeededWireBytes(level int) int {
	return p.ctWireBytes(formSeeded, level)
}
