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
	// ErrInvalidCiphertext: a ciphertext argument is nil or the zero
	// value, was built by a party over another modulus chain, or cannot
	// be put on the packed wire.
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

// validateCiphertext is the operand check of every method taking a
// Ciphertext, and it is O(1). Only this package builds a Ciphertext, so
// its limb count, row lengths, domain and scale hold by construction.
// What a caller can still hand over is a nil or zero value, or a
// ciphertext a party of another parameter set built: the level range
// turns away a deeper chain, and the chain recorded at wrap turns away
// every other one — including a chain of the same degree and depth over
// other primes, whose residues would otherwise be combined as if they
// were this party's.
func validateCiphertext(p *ckks.Parameters, ct *Ciphertext) error {
	if ct == nil || ct.ct == nil {
		return fmt.Errorf("%w: nil ciphertext", ErrInvalidCiphertext)
	}
	if err := validateLevel(p, ct.ct.Level); err != nil {
		return err
	}
	if ct.chain != p.Chain() {
		return fmt.Errorf("%w: made under modulus chain %+v, this party's is %+v",
			ErrInvalidCiphertext, ct.chain, p.Chain())
	}
	return nil
}

// deserializeCiphertext is the shared wire entry point of the role types.
// The ckks codec accepts only the packed coefficient-domain form, in which
// a Ciphertext rests between operations.
func deserializeCiphertext(p *ckks.Parameters, data []byte) (*Ciphertext, error) {
	ct, err := p.UnmarshalCiphertext(data)
	if err != nil {
		return nil, wireErr(err)
	}
	return wrap(p, ct), nil
}

// validateSameLevelScale checks binary-operation compatibility. The scale
// tolerance is relative to the larger operand so the check is symmetric:
// Add(a, b) and Add(b, a) must agree on whether the pair is compatible
// (an a-relative bound would accept one order and reject the other when
// one scale dwarfs the one the tolerance happened to be anchored to).
func validateSameLevelScale(a, b *Ciphertext) error {
	if a.ct.Level != b.ct.Level {
		return fmt.Errorf("%w: %d vs %d", ErrLevelMismatch, a.ct.Level, b.ct.Level)
	}
	if math.Abs(a.ct.Scale-b.ct.Scale) > math.Max(a.ct.Scale, b.ct.Scale)*1e-12 {
		return fmt.Errorf("%w: %g vs %g", ErrScaleMismatch, a.ct.Scale, b.ct.Scale)
	}
	return nil
}
