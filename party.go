package abcfhe

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/lanes"
)

// The role-separated v1 API. The paper's deployment model is asymmetric:
// a resource-constrained client device encodes and encrypts, decryption
// authority lives with the key owner, and evaluation happens on a keyless
// server. The public API mirrors that split with three parties that can
// live on different machines and exchange nothing but bytes:
//
//   - KeyOwner — holds the secret key: key generation, decrypt+decode,
//     seeded compressed uploads, key export.
//   - Encryptor — the fleet-of-devices role: constructed from a marshaled
//     public key only (never sees secret material); encode+encrypt.
//   - Server — keyless: expands compressed uploads and evaluates.
//
// All constructors and methods return typed errors (see errors.go) on
// misuse; panics are reserved for internal invariants.

// Option configures a party at construction.
type Option func(*config)

type config struct {
	workers int
	// backend is the limb-kernel binding. No option sets it: the zero
	// value is lanes.Fast, and only this package's tests bind the
	// portable reference kernels, to compare the two.
	backend lanes.Backend
}

// WithWorkers sizes the party's lane engine to n parallel workers — the
// software mirror of the paper's per-PNL lane count that Fig. 5b sweeps
// in hardware. n <= 0 (and the default) selects GOMAXPROCS; n = 1 forces
// the fully serial path. Any worker count produces bit-identical
// ciphertexts for the same seed.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// paramsFromKeyBlob is the shared untrusted-key-blob prologue of
// NewEncryptor and NewKeyOwnerFromSecretKey: parse the header, check the
// kind, range-validate the embedded spec, and verify the blob length it
// implies — all before paying for prime generation and NTT tables, so a
// hostile header can never demand work disproportionate to the bytes
// supplied. Sharing one helper keeps every gate applying to both wire
// entry points by construction.
func paramsFromKeyBlob(blob []byte, wantKind byte, opts []Option) (*ckks.Parameters, error) {
	spec, kind, err := ckks.ReadKeySpec(blob)
	if err != nil {
		return nil, wireErr(err)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: key blob kind 0x%02x, want 0x%02x", ErrMalformedWire, kind, wantKind)
	}
	if err := spec.Validate(); err != nil {
		return nil, wireErr(err)
	}
	if len(blob) != ckks.KeySpecWireBytes(spec, kind) {
		return nil, fmt.Errorf("%w: blob length %d does not match embedded spec", ErrMalformedWire, len(blob))
	}
	params, err := buildParamsFromSpec(spec, opts)
	if err != nil {
		return nil, wireErr(err)
	}
	return params, nil
}

// readEvalKeyBlob is the untrusted-bytes prologue shared by
// Server.ImportEvaluationKeys and NewServerFromEvaluationKeys — the
// evaluation-key sibling of paramsFromKeyBlob: parse the spec-embedding
// header and the geometry sub-header, range-validate both, and verify the
// blob length they imply, all before any payload-proportional work. The
// geometry is attacker-controlled too: a forged header claiming a huge
// depth or rotation table is rejected here, never allocated for. A header
// that is well-formed up to a gadget tag other than hybrid — the retired
// digit-gadget format — is ErrGadgetUnsupported as well as malformed.
func readEvalKeyBlob(blob []byte) (ckks.ParamSpec, ckks.EvalKeyInfo, error) {
	spec, info, err := ckks.ReadEvalKeyInfo(blob)
	if err != nil {
		err = wireErr(err)
		if info.Gadget != ckks.GadgetHybrid {
			err = fmt.Errorf("%w: %w", ErrGadgetUnsupported, err)
		}
		return ckks.ParamSpec{}, ckks.EvalKeyInfo{}, err
	}
	if err := spec.Validate(); err != nil {
		return ckks.ParamSpec{}, ckks.EvalKeyInfo{}, wireErr(err)
	}
	if len(blob) != ckks.EvalKeyWireBytes(spec, info) {
		return ckks.ParamSpec{}, ckks.EvalKeyInfo{}, fmt.Errorf(
			"%w: blob length %d does not match embedded spec", ErrMalformedWire, len(blob))
	}
	return spec, info, nil
}

// party is the substrate every role embeds: the parameter set, lane
// engine ownership, and the byte-boundary helpers all three parties
// share. Centralizing them here means a hardening change (validation in
// SerializeCiphertext, rejection rules in the deserializer) applies to
// every role by construction.
type party struct {
	params *ckks.Parameters
}

// Slots returns the number of complex message slots (N/2).
func (p *party) Slots() int { return p.params.Slots() }

// MaxLevel returns the RNS depth fresh ciphertexts carry.
func (p *party) MaxLevel() int { return p.params.MaxLevel() }

// Workers reports the lane count kernels fan out across.
func (p *party) Workers() int { return p.params.Workers() }

// Close releases the party's private lane engine, if WithWorkers
// installed one. The party must be idle; using it afterwards falls back
// to the shared default engine. Close is idempotent and safe to call
// concurrently — serving-layer teardown reaches it from multiple paths
// (drain, deferred cleanup, signal handlers), and a second Close is a
// no-op.
func (p *party) Close() { p.params.Close() }

// SerializeCiphertext encodes ct in the packed 44-bit wire format — the
// exact byte stream the accelerator's DRAM/wire accounting charges.
func (p *party) SerializeCiphertext(ct *Ciphertext) ([]byte, error) {
	if err := validateCiphertext(p.params, ct); err != nil {
		return nil, err
	}
	data, err := p.params.MarshalCiphertext(ct.ct, true)
	if err != nil { // limbs wider than the 44-bit word (a custom spec)
		return nil, fmt.Errorf("%w: %w", ErrInvalidCiphertext, err)
	}
	return data, nil
}

// DeserializeCiphertext reverses SerializeCiphertext, validating every
// residue against the parameter set. Only the form SerializeCiphertext
// writes is accepted: any other form byte (the retired word encoding, a
// seeded upload) or a nonzero domain byte returns ErrMalformedWire.
func (p *party) DeserializeCiphertext(data []byte) (*Ciphertext, error) {
	return deserializeCiphertext(p.params, data)
}

// CiphertextWireBytes reports the packed wire size of a full ciphertext
// at the given level.
func (p *party) CiphertextWireBytes(level int) (int, error) {
	if err := validateLevel(p.params, level); err != nil {
		return 0, err
	}
	return p.params.CiphertextWireBytes(level), nil
}

// CompressedWireBytes reports the seeded upload's wire size at a level.
func (p *party) CompressedWireBytes(level int) (int, error) {
	if err := validateLevel(p.params, level); err != nil {
		return 0, err
	}
	return p.params.SeededWireBytes(level), nil
}

// buildParams constructs a private Parameters instance for a party.
func buildParams(preset Preset, opts []Option) (*ckks.Parameters, error) {
	spec, err := preset.spec()
	if err != nil {
		return nil, err
	}
	return buildParamsFromSpec(spec, opts)
}

func buildParamsFromSpec(spec ckks.ParamSpec, opts []Option) (*ckks.Parameters, error) {
	params, err := spec.Build()
	if err != nil {
		return nil, err
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers != 0 {
		params.SetWorkers(cfg.workers)
	}
	if cfg.backend != lanes.Fast {
		params.SetBackend(cfg.backend)
	}
	return params, nil
}
