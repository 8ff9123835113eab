package ckks

import (
	"sync/atomic"

	"repro/internal/fftfp"
	"repro/internal/prng"
	"repro/internal/ring"
)

// fftfpComplex aliases the reduced-precision complex type used by the
// encoder's transform stage.
type fftfpComplex = fftfp.Complex

// Ciphertext is an RLWE pair (c0, c1) at some level with a scale.
// Ciphertexts travel in the coefficient domain — the form the ABC-FHE
// streaming pipeline emits to DRAM and the op-count analysis of paper
// Fig. 2 assumes (decryption then pays one NTT on c1 and one INTT back).
type Ciphertext struct {
	C0, C1 *ring.Poly
	Level  int
	Scale  float64
}

// CopyCiphertext returns a deep copy.
func (p *Parameters) CopyCiphertext(ct *Ciphertext) *Ciphertext {
	rl := p.RingAt(ct.Level)
	return &Ciphertext{
		C0:    rl.CopyPoly(ct.C0),
		C1:    rl.CopyPoly(ct.C1),
		Level: ct.Level,
		Scale: ct.Scale,
	}
}

// Encryptor performs public-key RLWE encryption. Encryption randomness is
// drawn from a seeded PRNG with a per-call stream counter, mirroring the
// accelerator's on-chip generation of masks and errors. The counter is
// atomic, so one Encryptor can serve many goroutines; each call owns a
// disjoint stream window.
type Encryptor struct {
	params *Parameters
	pk     *PublicKey
	seed   [16]byte
	calls  atomic.Uint64
}

// NewEncryptor builds an encryptor around pk using seed for randomness.
func NewEncryptor(params *Parameters, pk *PublicKey, seed [16]byte) *Encryptor {
	return &Encryptor{params: params, pk: pk, seed: seed}
}

// Encrypt produces a fresh encryption of pt at pt's level:
//
//	c0 = pk0·u + e0 + m,   c1 = pk1·u + e1
//
// with u ternary and e0, e1 Gaussian. The products run in the NTT domain;
// the result is returned in the coefficient domain (see Ciphertext).
// Per-limb transform count: 1 NTT (u) + 2 INTT (the two products), so an
// L-limb encryption runs 3L transforms and emits a coefficient-domain
// ciphertext. internal/sched's operation model (EncodeEncryptOps) charges
// 2L passes and assumes the ciphertext leaves in the NTT domain; the two
// disagree until measured op counts settle which one moves (ROADMAP
// item 1).
func (enc *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	return enc.encryptCall(pt, enc.calls.Add(1))
}

// EncryptBatchFrom encrypts the n plaintexts produced by gen (called
// concurrently, once per index), fanning whole messages out across the
// lane engine and recycling each plaintext as soon as it is consumed —
// so only in-flight messages hold pooled memory. Stream windows are
// reserved up front and assigned by index, so the output is bit-identical
// to encrypting the batch serially — at any worker count.
func (enc *Encryptor) EncryptBatchFrom(n int, gen func(i int) *Plaintext) []*Ciphertext {
	base := enc.calls.Add(uint64(n)) - uint64(n)
	out := make([]*Ciphertext, n)
	enc.params.Ring().Engine().Run(n, func(i int) {
		pt := gen(i)
		out[i] = enc.encryptCall(pt, base+uint64(i)+1)
		enc.params.PutPlaintext(pt)
	})
	return out
}

// encryptCall is Encrypt with an explicit call number (the PRNG stream
// window owner). Scratch comes from the (N, limbs) pool; only the
// returned pair is freshly owned by the caller.
func (enc *Encryptor) encryptCall(pt *Plaintext, call uint64) *Ciphertext {
	p := enc.params
	level := pt.Level
	rl := p.RingAt(level)
	base := streamEncMask + 16*call

	u := rl.GetPolyUninit() // sampler fully overwrites
	rl.TernaryPoly(prng.NewSource(enc.seed, base), u)
	rl.NTT(u)

	// pk at this level: limb-prefix views of the full-depth key.
	pk0 := &ring.Poly{Coeffs: enc.pk.P0.Coeffs[:level], IsNTT: true}
	pk1 := &ring.Poly{Coeffs: enc.pk.P1.Coeffs[:level], IsNTT: true}

	c0 := rl.GetPolyUninit() // MulCoeffs fully overwrites
	c1 := rl.GetPolyUninit()
	rl.MulCoeffs(pk0, u, c0)
	rl.MulCoeffs(pk1, u, c1)
	rl.INTT(c0)
	rl.INTT(c1)
	rl.PutPoly(u)

	e0 := rl.GetPolyUninit() // sampler fully overwrites
	e1 := rl.GetPolyUninit()
	rl.GaussianPoly(prng.NewSource(enc.seed, base+1), e0)
	rl.GaussianPoly(prng.NewSource(enc.seed, base+2), e1)
	rl.Add(c0, e0, c0)
	rl.Add(c1, e1, c1)
	rl.PutPoly(e0)
	rl.PutPoly(e1)

	if pt.Value.IsNTT {
		panic("ckks: plaintext must be in coefficient domain")
	}
	rl.Add(c0, pt.Value, c0)

	return &Ciphertext{C0: c0, C1: c1, Level: level, Scale: pt.Scale}
}

// Decryptor recovers plaintexts with the secret key. It holds no mutable
// state, so it is safe for concurrent use.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor builds a decryptor around sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes m' = c0 + c1·s at the ciphertext's level, returning a
// coefficient-domain plaintext. Per-limb transforms: NTT(c1) then INTT of
// the sum — the 2L transforms/L-limb decryption of the operation model.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	p := dec.params
	rl := p.RingAt(ct.Level)

	c1 := rl.GetPolyCopy(ct.C1)
	rl.NTT(c1)
	sk := &ring.Poly{Coeffs: dec.sk.S.Coeffs[:ct.Level], IsNTT: true}
	rl.MulCoeffs(c1, sk, c1)
	rl.INTT(c1)

	out := rl.GetPolyUninit() // Add fully overwrites
	rl.Add(ct.C0, c1, out)
	rl.PutPoly(c1)

	return &Plaintext{Value: out, Level: ct.Level, Scale: ct.Scale}
}
