package ckks

import (
	"repro/internal/lanes"
	"repro/internal/prng"
	"repro/internal/ring"
)

// SecretKey is the ternary RLWE secret, stored in the NTT domain at full
// depth (decryption at lower levels uses the limb prefix).
type SecretKey struct {
	S *ring.Poly // NTT domain, full limbs
}

// PublicKey is the RLWE encryption key (pk0, pk1) = (-a·s + e, a) in the
// NTT domain at full depth.
type PublicKey struct {
	P0, P1 *ring.Poly
}

// KeyGenerator derives keys deterministically from a 128-bit seed — the
// property the accelerator's on-chip PRNG exploits: only the seed is
// stored; key material is regenerated on demand (paper §IV-B).
//
// Evaluation keys draw their public masks from a second seed,
// deriveEvalKeyMaskSeed(seed), which travels with every evaluation-key
// blob; their errors stay on the secret seed.
type KeyGenerator struct {
	params   *Parameters
	seed     [16]byte
	maskSeed [16]byte // deriveEvalKeyMaskSeed(seed): public
}

// NewKeyGenerator creates a generator over params with the given seed.
func NewKeyGenerator(params *Parameters, seed [16]byte) *KeyGenerator {
	return &KeyGenerator{params: params, seed: seed, maskSeed: deriveEvalKeyMaskSeed(seed)}
}

// Stream identifiers partition the PRNG seed space by purpose so no two
// sampled objects ever share keystream.
const (
	streamSecret uint64 = iota + 1
	streamPKMask
	streamPKError
	streamEncMask // base for per-encryption streams (first window starts at streamEncMask+16)
)

// streamUploadSeed, streamUploadErrSeed and streamEvalKeyMaskSeed feed
// the public-seed derivations; they sit in the gap below the first
// per-encryption window (streamEncMask + 16).
const (
	streamUploadSeed      uint64 = streamEncMask + 1
	streamUploadErrSeed   uint64 = streamEncMask + 2
	streamEvalKeyMaskSeed uint64 = streamEncMask + 3
)

// DeriveUploadSeed derives the seeded-upload *mask* seed from the
// owner's root seed through the PRF: seeded ciphertexts transmit their
// mask seed in the clear (the server regenerates c1 from it), so the
// wire must carry a seed that is one-way derived from — never equal to —
// the seed the key generator consumes. ChaCha output does not reveal its
// key, so holders of upload bytes cannot walk back to the keypair.
func DeriveUploadSeed(seed [16]byte) [16]byte {
	src := prng.NewSource(seed, streamUploadSeed)
	return prng.SeedFromUint64s(src.Uint64(), src.Uint64())
}

// deriveEvalKeyMaskSeed derives the evaluation-key *mask* seed from the
// owner's root seed through the PRF, the same one-way step as
// DeriveUploadSeed on its own stream. Every switching-key row's uniform
// half a_j is drawn from it, and it travels in the clear in each
// evaluation-key blob so the receiver regenerates the a_j rows instead of
// reading them. The rows' Gaussian errors stay on the root seed: whoever
// holds the blob can rebuild every a_j, but no e_j.
func deriveEvalKeyMaskSeed(seed [16]byte) [16]byte {
	src := prng.NewSource(seed, streamEvalKeyMaskSeed)
	return prng.SeedFromUint64s(src.Uint64(), src.Uint64())
}

// deriveUploadErrorSeed derives the seeded-upload *error* seed — a
// second, independent PRF expansion of the root seed that never reaches
// the wire. It must not be computable from the transmitted mask seed:
// an attacker who could regenerate the Gaussian error would strip every
// upload down to an errorless RLWE sample (and with one known plaintext,
// solve for the secret key outright).
func deriveUploadErrorSeed(seed [16]byte) [16]byte {
	src := prng.NewSource(seed, streamUploadErrSeed)
	return prng.SeedFromUint64s(src.Uint64(), src.Uint64())
}

// secretSignedInto fills vals (length N) with the two's-complement bits of
// the ternary secret's centered coefficients, resampled deterministically
// from the generator's seed. This is the shared source of GenSecretKey and
// the hybrid keygen's extended-basis secret: the same signed polynomial
// expands into whichever RNS basis the caller needs.
func (kg *KeyGenerator) secretSignedInto(vals []uint64) {
	src := prng.NewSource(kg.seed, streamSecret)
	if kg.params.HW > 0 {
		// Sample the signed polynomial once (serial: the PRNG stream order
		// is part of the determinism contract) and decode the mod-3
		// residues to centered bits.
		src.TernaryPolyHW(vals, kg.params.HW, 3) // residues mod 3: {0,1,2}
		for j, v := range vals {
			var c int64
			switch v {
			case 1:
				c = 1
			case 2:
				c = -1
			}
			vals[j] = uint64(c)
		}
		return
	}
	for j := range vals {
		vals[j] = uint64(src.TernarySample())
	}
}

// GenSecretKey samples the ternary secret (Hamming weight params.HW if
// nonzero, uniform ternary otherwise) and transforms it to NTT form.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	r := kg.params.Ring()
	s := r.NewPoly()
	tmp := lanes.GetSlab(r.N)
	kg.secretSignedInto(tmp)
	r.ExpandSignedBits(tmp, s)
	lanes.PutSlab(tmp)
	r.NTT(s)
	return &SecretKey{S: s}
}

// secretQP expands the generator's secret into the extended basis
// (q_0..q_{depth-1}, P) in the NTT domain — the form hybrid key
// generation consumes. The returned polynomial is pooled; release it with
// rqp.PutPoly.
func (kg *KeyGenerator) secretQP(depth int) *ring.Poly {
	rqp := kg.params.RingQPAt(depth)
	s := rqp.GetPolyUninit() // ExpandSignedBits writes every word
	tmp := lanes.GetSlab(rqp.N)
	kg.secretSignedInto(tmp)
	rqp.ExpandSignedBits(tmp, s)
	lanes.PutSlab(tmp)
	rqp.NTT(s)
	return s
}

// GenPublicKey derives (pk0, pk1) = (-a·s + e, a): a uniform in the NTT
// domain (uniformity is domain-invariant, so the PRNG can emit it directly
// in evaluation form — the trick that lets hardware skip one NTT), e a
// fresh Gaussian error.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	r := kg.params.Ring()
	maskSrc := prng.NewSource(kg.seed, streamPKMask)
	errSrc := prng.NewSource(kg.seed, streamPKError)

	a := r.NewPoly()
	r.UniformPoly(maskSrc, a)
	a.IsNTT = true // uniform randomness interpreted directly in NTT domain

	e := r.GetPolyUninit() // sampler fully overwrites
	r.GaussianPoly(errSrc, e)
	r.NTT(e)

	p0 := r.NewPoly()
	r.MulCoeffs(a, sk.S, p0) // a·s
	r.Neg(p0, p0)            // -a·s
	r.Add(p0, e, p0)         // -a·s + e
	r.PutPoly(e)
	return &PublicKey{P0: p0, P1: a}
}

// GenKeyPair is the common bundle.
func (kg *KeyGenerator) GenKeyPair() (*SecretKey, *PublicKey) {
	sk := kg.GenSecretKey()
	return sk, kg.GenPublicKey(sk)
}
