package abcfhe

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// Encryptor is the fleet-of-devices role the accelerator targets: it is
// constructed from a marshaled public key only — no secret material ever
// reaches the device — and runs the outbound pipeline (IFFT encoding, RNS
// expansion, public-key RLWE encryption). The public-key blob embeds the
// parameter spec, so a device bootstraps from nothing but bytes.
//
// Each device must use its own 128-bit randomness seed: two Encryptors
// sharing a seed emit identical masks (that determinism is the point of
// the accelerator's on-chip PRNG, and what the reproducibility tests pin
// down, but distinct devices in production must seed distinctly).
//
// An Encryptor is safe for concurrent use; encryption randomness is drawn
// from a per-call atomic stream counter.
type Encryptor struct {
	party
	encoder *ckks.Encoder
	enc     *ckks.Encryptor
}

// NewEncryptor builds an encrypting device from an exported public-key
// blob (see KeyOwner.ExportPublicKey) and the device's 128-bit randomness
// seed. Options tune the execution engine; the cryptographic output never
// depends on them.
func NewEncryptor(publicKey []byte, seedLo, seedHi uint64, opts ...Option) (*Encryptor, error) {
	params, err := paramsFromKeyBlob(publicKey, ckks.KeyKindPublic, opts)
	if err != nil {
		return nil, err
	}
	pk, err := params.UnmarshalPublicKey(publicKey)
	if err != nil {
		return nil, wireErr(err)
	}
	return newEncryptor(params, pk, prng.SeedFromUint64s(seedLo, seedHi)), nil
}

func newEncryptor(params *ckks.Parameters, pk *ckks.PublicKey, seed [16]byte) *Encryptor {
	return &Encryptor{
		party:   party{params: params},
		encoder: ckks.NewEncoder(params),
		enc:     ckks.NewEncryptor(params, pk, seed),
	}
}

// EncodeEncrypt runs the outbound device pipeline: IFFT encoding, RNS
// expansion, and public-key encryption at full depth. The intermediate
// plaintext's storage is recycled, so the steady-state pipeline allocates
// only the returned ciphertext.
func (e *Encryptor) EncodeEncrypt(msg []complex128) (*Ciphertext, error) {
	if err := validateMessage(e.params, msg); err != nil {
		return nil, err
	}
	pt := e.encoder.Encode(msg)
	ct := e.enc.Encrypt(pt)
	e.params.PutPlaintext(pt)
	return wrap(e.params, ct), nil
}

// EncodeEncryptBatch runs the outbound pipeline over a whole batch,
// fanning the messages out across the lane engine. PRNG stream windows
// are reserved by batch index, so the result is bit-identical to calling
// EncodeEncrypt on each message in order — at any worker count.
func (e *Encryptor) EncodeEncryptBatch(msgs [][]complex128) ([]*Ciphertext, error) {
	for i, msg := range msgs {
		if err := validateMessage(e.params, msg); err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
	}
	cts := e.enc.EncryptBatchFrom(len(msgs), func(i int) *ckks.Plaintext {
		return e.encoder.Encode(msgs[i])
	})
	out := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		out[i] = wrap(e.params, ct)
	}
	return out, nil
}

// Slots, MaxLevel, Workers, Close, SerializeCiphertext,
// DeserializeCiphertext, CiphertextWireBytes and CompressedWireBytes are
// provided by the embedded party substrate (party.go).
