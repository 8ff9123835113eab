// Package abcfhe is the public API of this repository: a from-scratch Go
// reproduction of "ABC-FHE: A Resource-Efficient Accelerator Enabling
// Bootstrappable Parameters for Client-Side Fully Homomorphic Encryption"
// (Yune et al., DAC 2025).
//
// It exposes a role-separated CKKS deployment (encode/encrypt/decrypt/
// decode over bootstrappable parameter sets, N = 2^13..2^16, 36-bit
// double-scale RNS chains) built entirely from this repository's
// substrates. Three parties mirror the paper's asymmetric deployment:
// KeyOwner (secret key: keygen, decrypt+decode, seeded uploads, key
// export — including evaluation keys), Encryptor (public-key-only encoding
// devices) and Server (keyless: expands compressed uploads, evaluates —
// additions and constants key-free; ct×ct multiplication, slot rotations,
// inner sums and plaintext-weight dot products gated by an imported
// evaluation-key set). Parties on different machines exchange nothing but
// bytes — packed wire formats for ciphertexts, compressed uploads, and
// keys.
//
// The modeled ABC-FHE chip (cycle-level latency, throughput, and the 28 nm
// area/power composition) is not part of this package: its one entry
// point is internal/core, and cmd/abcbench regenerates the paper's tables
// and figures from it.
//
// Misuse of the public surface (bad lengths, wrong levels, malformed
// bytes, unknown presets) returns typed errors (see errors.go); panics
// are reserved for internal invariants.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package abcfhe

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/fftfp"
)

// ---------------------------------------------------------------------
// Parameter presets
// ---------------------------------------------------------------------

// Preset names a parameter set.
type Preset string

const (
	// PN16 is the paper's evaluation configuration: N = 2^16, 24 limbs of
	// 36-bit primes (12 double-scale levels), sparse ternary secret.
	PN16 Preset = "PN16"
	// PN15, PN14, PN13 are the smaller bootstrappable-range degrees the
	// paper sweeps in Fig. 6b.
	PN15 Preset = "PN15"
	PN14 Preset = "PN14"
	PN13 Preset = "PN13"
	// Test is a small, fast set for experimentation (N = 2^10, 4 limbs).
	Test Preset = "Test"
)

// Presets lists every preset name, largest first.
func Presets() []Preset { return []Preset{PN16, PN15, PN14, PN13, Test} }

func (p Preset) spec() (ckks.ParamSpec, error) {
	switch p {
	case PN16:
		return ckks.PN16, nil
	case PN15:
		return ckks.PN15, nil
	case PN14:
		return ckks.PN14, nil
	case PN13:
		return ckks.PN13, nil
	case Test:
		return ckks.TestParams, nil
	}
	return ckks.ParamSpec{}, fmt.Errorf("%w: %q", ErrUnknownPreset, p)
}

// Ciphertext is an encrypted message (RLWE pair in the coefficient
// domain, carrying its level and scale).
type Ciphertext = ckks.Ciphertext

// Plaintext is an encoded (but unencrypted) message.
type Plaintext = ckks.Plaintext

// FP55MantissaBits is the custom floating-point mantissa width the RFE
// uses (paper Fig. 3c: ≥43 bits keeps bootstrapping precision above the
// 19.29-bit threshold).
const FP55MantissaBits = fftfp.FP55Mantissa
