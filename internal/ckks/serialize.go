package ckks

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ring"
)

// Ciphertext wire formats. A ciphertext travels in one of two forms, both
// packed at 44 bits per residue by pack44.go — the word the accelerator
// streams over LPDDR5, so a blob's size is the DRAM traffic the simulator
// charges for it (2·L·N·44/8 payload bytes for a full ciphertext; see
// internal/sim and TestPackedSizeMatchesDRAMModel):
//
//   - full (form byte 1): c0 limbs then c1 limbs;
//   - seeded (form byte 0x81, seeded.go): a 16-byte mask seed, a u64
//     stream and the c0 limbs — c1 is regenerated from the seed.
//
// Both forms carry the coefficient domain, in which every Ciphertext rests
// between operations: the marshalers refuse an NTT-domain polynomial and
// the unmarshalers a nonzero domain byte. Each accepted blob therefore
// re-marshals to its own bytes.
//
// Header (both forms, little-endian), read and written by one pair of
// functions:
//
//	magic "ABCF" | version u8 | form u8 | logN u8 | level u8 |
//	scale f64 | domain u8 (always 0) | payload
const (
	wireMagic = "ABCF"
	// wireVersion 2: PR 5 grew the key header by a specialLimbs byte and
	// the evaluation-key sub-header by a gadget byte. The bump makes every
	// parser reject pre-hybrid blobs with a clean "unsupported version"
	// instead of shifted-field garbage (the version byte is shared by the
	// ciphertext and key formats, so all marshalers moved together).
	wireVersion = 2

	// formFull and formSeeded are the ciphertext form bytes (byte 5).
	formFull   = 1
	formSeeded = 0x81

	ctHeaderLen = 17
	// seedMaterialLen is the seeded form's mask seed plus its stream.
	seedMaterialLen = 16 + 8
)

// ctWireBytes is the exact blob size of a ciphertext form at a level.
func (p *Parameters) ctWireBytes(form byte, level int) int {
	if form == formSeeded {
		return ctHeaderLen + seedMaterialLen + packedBytes(level, p.N())
	}
	return ctHeaderLen + packedBytes(2*level, p.N())
}

// marshalCt writes a ciphertext blob of the given form: the header, the
// prefix (the seeded form's seed material) and the packed limbs of polys,
// which must be in the coefficient domain — the domain byte stays 0.
func (p *Parameters) marshalCt(form byte, level int, scale float64, prefix []byte, polys ...*ring.Poly) ([]byte, error) {
	if level < 1 || level > p.MaxLevel() {
		return nil, fmt.Errorf("ckks: marshal: bad level %d", level)
	}
	for _, poly := range polys {
		if poly.IsNTT {
			return nil, fmt.Errorf("ckks: marshal: NTT-domain ciphertext; the wire carries the coefficient domain")
		}
	}
	out := make([]byte, p.ctWireBytes(form, level))
	copy(out, wireMagic)
	out[4] = wireVersion
	out[5] = form
	out[6] = byte(p.LogN)
	out[7] = byte(level)
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(scale))
	copy(out[ctHeaderLen:], prefix)
	if err := packRows(p.RingAt(level), out[ctHeaderLen+len(prefix):], polyRows(level, polys...)); err != nil {
		return nil, err
	}
	return out, nil
}

// readCtHeader validates the header of a blob of the given form — magic,
// version, form, ring degree, level, scale (finite and positive), domain 0
// — and its exact length, before anything is allocated.
func (p *Parameters) readCtHeader(data []byte, form byte) (level int, scale float64, err error) {
	if len(data) < ctHeaderLen || string(data[:4]) != wireMagic {
		return 0, 0, fmt.Errorf("bad magic/short data")
	}
	if data[4] != wireVersion {
		return 0, 0, fmt.Errorf("unsupported version %d", data[4])
	}
	if data[5] != form {
		return 0, 0, fmt.Errorf("form byte 0x%02x, want 0x%02x", data[5], form)
	}
	if int(data[6]) != p.LogN {
		return 0, 0, fmt.Errorf("logN %d does not match parameters (%d)", data[6], p.LogN)
	}
	level = int(data[7])
	if level < 1 || level > p.MaxLevel() {
		return 0, 0, fmt.Errorf("bad level %d", level)
	}
	scale = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	if !(scale > 0) || math.IsInf(scale, 0) {
		return 0, 0, fmt.Errorf("invalid scale %g", scale)
	}
	if data[16] != 0 {
		return 0, 0, fmt.Errorf("domain byte %d, want 0 (coefficient domain)", data[16])
	}
	if want := p.ctWireBytes(form, level); len(data) != want {
		return 0, 0, fmt.Errorf("blob length %d, want %d", len(data), want)
	}
	return level, scale, nil
}

// MarshalCiphertext serializes a coefficient-domain ct in the full form.
// packed must be true: it is the only encoding.
func (p *Parameters) MarshalCiphertext(ct *Ciphertext, packed bool) ([]byte, error) {
	if !packed {
		return nil, fmt.Errorf("ckks: marshal: the packed encoding is the only ciphertext encoding")
	}
	return p.marshalCt(formFull, ct.Level, ct.Scale, nil, ct.C0, ct.C1)
}

// UnmarshalCiphertext reverses MarshalCiphertext, validating every residue
// against its limb's modulus.
func (p *Parameters) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	level, scale, err := p.readCtHeader(data, formFull)
	if err != nil {
		return nil, fmt.Errorf("ckks: unmarshal: %w", err)
	}
	rl := p.RingAt(level)
	ct := &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: level, Scale: scale}
	if err := unpackRows(rl, data[ctHeaderLen:], polyRows(level, ct.C0, ct.C1)); err != nil {
		return nil, fmt.Errorf("ckks: unmarshal: %w", err)
	}
	return ct, nil
}

// CiphertextWireBytes returns the full form's wire size at a level — the
// number the DRAM model in internal/sim charges per ciphertext transfer.
func (p *Parameters) CiphertextWireBytes(level int) int {
	return p.ctWireBytes(formFull, level)
}
