package abcfhe

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ckks"
)

// Typed sentinel errors for the public surface. Every misuse of the
// role-separated API (bad lengths, out-of-range levels, malformed bytes,
// unknown presets) is reported as an error wrapping one of these — test
// with errors.Is. Panics are reserved for internal invariant violations.
var (
	// ErrUnknownPreset: the preset name does not name a parameter set.
	ErrUnknownPreset = errors.New("abcfhe: unknown preset")
	// ErrMessageTooLong: a message exceeds the parameter set's Slots().
	ErrMessageTooLong = errors.New("abcfhe: message longer than slot count")
	// ErrLevelOutOfRange: a level argument is outside [1, MaxLevel()] (or
	// outside the specific range an operation supports, e.g. Rescale ≥ 2).
	ErrLevelOutOfRange = errors.New("abcfhe: level out of range")
	// ErrLevelMismatch: two operands carry different levels.
	ErrLevelMismatch = errors.New("abcfhe: ciphertext level mismatch")
	// ErrScaleMismatch: two operands carry incompatible scales.
	ErrScaleMismatch = errors.New("abcfhe: ciphertext scale mismatch")
	// ErrInvalidCiphertext: a ciphertext value is structurally broken
	// (nil components, limb count inconsistent with its level, mixed
	// NTT/coefficient domains, wrong ring degree).
	ErrInvalidCiphertext = errors.New("abcfhe: invalid ciphertext")
	// ErrBufferSize: a caller-provided output buffer has the wrong shape.
	ErrBufferSize = errors.New("abcfhe: wrong output buffer size")
	// ErrMalformedWire: bytes from the wire failed validation (bad magic,
	// truncation, corrupt residues, wrong key kind, spec mismatch, …).
	ErrMalformedWire = errors.New("abcfhe: malformed wire bytes")
	// ErrInvalidConstant: a scalar operand is not representable (NaN,
	// infinite, or too large for the fixed-point approximation).
	ErrInvalidConstant = errors.New("abcfhe: invalid constant")
	// ErrEvaluationKeyMissing: an operation needs evaluation-key material
	// the provided set does not carry — no set at all, no relinearization
	// key, an ungenerated rotation step, or a missing conjugation key.
	ErrEvaluationKeyMissing = errors.New("abcfhe: evaluation key missing")
	// ErrInvalidSpan: an inner-sum span is not a power of two within the
	// slot count.
	ErrInvalidSpan = errors.New("abcfhe: invalid slot span")
	// ErrGadgetUnsupported: evaluation keys were requested from a
	// parameter set that cannot host hybrid key switching (no special
	// primes), or an imported blob carries a gadget tag other than the
	// hybrid one (tag 0 marked the retired digit-gadget format).
	ErrGadgetUnsupported = errors.New("abcfhe: key-switching gadget unsupported by parameter set")
)

// wireErr brands a deserialization failure with ErrMalformedWire while
// keeping the underlying detail in the chain.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrMalformedWire, err)
}

// validateMessage bounds-checks an encode input: length against the slot
// count, and every component finite. A NaN or Inf would not error inside
// the encoder — math.Frexp flushes them into garbage residues that decrypt
// to pseudo-random slots — so the rejection MulConst applies to scalar
// constants holds at every vector encode entry point too (EncodeEncrypt,
// the compressed uploads, DotPlain weights, linear-transform diagonals).
func validateMessage(p *ckks.Parameters, msg []complex128) error {
	if len(msg) > p.Slots() {
		return fmt.Errorf("%w: %d values, %d slots", ErrMessageTooLong, len(msg), p.Slots())
	}
	for i, z := range msg {
		re, im := real(z), imag(z)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return fmt.Errorf("%w: non-finite component %v at slot %d", ErrInvalidConstant, z, i)
		}
	}
	return nil
}

// validateLevel checks a level argument against the chain depth.
func validateLevel(p *ckks.Parameters, level int) error {
	if level < 1 || level > p.MaxLevel() {
		return fmt.Errorf("%w: level %d not in [1, %d]", ErrLevelOutOfRange, level, p.MaxLevel())
	}
	return nil
}

// validateCiphertext checks the structural invariants the scheme layer
// assumes (and would otherwise panic on): component presence, level range,
// limb counts matching the level, consistent domains, matching degree.
func validateCiphertext(p *ckks.Parameters, ct *Ciphertext) error {
	if ct == nil || ct.C0 == nil || ct.C1 == nil {
		return fmt.Errorf("%w: nil ciphertext or component", ErrInvalidCiphertext)
	}
	if err := validateLevel(p, ct.Level); err != nil {
		return err
	}
	if len(ct.C0.Coeffs) != ct.Level || len(ct.C1.Coeffs) != ct.Level {
		return fmt.Errorf("%w: limb count (%d, %d) does not match level %d",
			ErrInvalidCiphertext, len(ct.C0.Coeffs), len(ct.C1.Coeffs), ct.Level)
	}
	for _, poly := range []*[][]uint64{&ct.C0.Coeffs, &ct.C1.Coeffs} {
		for _, row := range *poly {
			if len(row) != p.N() {
				return fmt.Errorf("%w: limb length %d, want N=%d", ErrInvalidCiphertext, len(row), p.N())
			}
		}
	}
	if ct.C0.IsNTT != ct.C1.IsNTT {
		return fmt.Errorf("%w: mixed NTT/coefficient domains", ErrInvalidCiphertext)
	}
	if !(ct.Scale > 0) || math.IsInf(ct.Scale, 0) {
		return fmt.Errorf("%w: invalid scale %g", ErrInvalidCiphertext, ct.Scale)
	}
	return nil
}

// validateCoeffCiphertext additionally requires the coefficient domain —
// the form every ciphertext of the public API travels and computes in
// (see Ciphertext). Decrypt would double-NTT (and panic the ring layer)
// on an NTT-domain pair, and evaluation outputs would come back
// mislabeled as coefficient-domain, laundering the bad tag past the
// decrypt check — so a flipped wire domain byte must stop at every
// public entry point: the role deserializers, the server operands, and
// the decrypt pipeline.
func validateCoeffCiphertext(p *ckks.Parameters, ct *Ciphertext) error {
	if err := validateCiphertext(p, ct); err != nil {
		return err
	}
	if ct.C0.IsNTT {
		return fmt.Errorf("%w: public-API ciphertexts travel in the coefficient domain", ErrInvalidCiphertext)
	}
	return nil
}

// deserializeCoeffCiphertext is the shared wire entry point of the role
// types: parse, then reject NTT-tagged blobs — the ckks layer supports
// the NTT domain on the wire for internal uses, but public-API
// ciphertexts travel in the coefficient domain, and accepting the tag
// here would let a flipped domain byte launder through evaluation
// (whose outputs are labeled coefficient-domain) into silent garbage.
func deserializeCoeffCiphertext(p *ckks.Parameters, data []byte) (*Ciphertext, error) {
	ct, err := p.UnmarshalCiphertext(data)
	if err != nil {
		return nil, wireErr(err)
	}
	if ct.C0.IsNTT {
		return nil, fmt.Errorf("%w: NTT-domain ciphertext on the public wire", ErrMalformedWire)
	}
	return ct, nil
}

// validateSameLevelScale checks binary-operation compatibility. The scale
// tolerance is relative to the larger operand so the check is symmetric:
// Add(a, b) and Add(b, a) must agree on whether the pair is compatible
// (an a-relative bound would accept one order and reject the other when
// one scale dwarfs the one the tolerance happened to be anchored to).
func validateSameLevelScale(a, b *Ciphertext) error {
	if a.Level != b.Level {
		return fmt.Errorf("%w: %d vs %d", ErrLevelMismatch, a.Level, b.Level)
	}
	if math.Abs(a.Scale-b.Scale) > math.Max(a.Scale, b.Scale)*1e-12 {
		return fmt.Errorf("%w: %g vs %g", ErrScaleMismatch, a.Scale, b.Scale)
	}
	return nil
}
