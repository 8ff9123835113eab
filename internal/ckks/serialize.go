package ckks

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format for ciphertexts and plaintexts. Two encodings are provided:
//
//   - word: 8 bytes per coefficient (fast, alignment-friendly), and
//   - packed: 44 bits per coefficient — the format the accelerator
//     streams over LPDDR5, so the serialized size matches the DRAM traffic
//     the simulator charges (2·L·N·44/8 bytes per ciphertext; see
//     internal/sim and the cross-check test). Coded by pack44.go in blocks
//     of 16 coefficients = 88 bytes = 11 words; N ≥ 16 byte-aligns every
//     limb row, so rows are coded in parallel across the lanes, residues
//     are validated in the unpack pass, and the marshalers reject a
//     residue that does not fit 44 bits.
//
// Layout (both encodings, little-endian):
//
//	magic "ABCF" | version u8 | enc u8 | logN u8 | level u8 |
//	scale f64 | domain u8 | payload (c0 limbs then c1 limbs)
const (
	wireMagic = "ABCF"
	// wireVersion 2: PR 5 grew the key header by a specialLimbs byte and
	// the evaluation-key sub-header by a gadget byte. The bump makes every
	// parser reject pre-hybrid blobs with a clean "unsupported version"
	// instead of shifted-field garbage (the version byte is shared by the
	// ciphertext and key formats, so all marshalers moved together).
	wireVersion = 2

	encWord   = 0
	encPacked = 1
)

// PackedWordBits is the hardware stream word width.
const PackedWordBits = 44

func headerLen() int { return 4 + 1 + 1 + 1 + 1 + 8 + 1 }

// MarshalCiphertext serializes ct. packed selects the 44-bit stream
// encoding; coefficients must fit PackedWordBits (true for ≤44-bit limb
// primes — enforced).
func (p *Parameters) MarshalCiphertext(ct *Ciphertext, packed bool) ([]byte, error) {
	if ct.Level < 1 || ct.Level > p.MaxLevel() {
		return nil, fmt.Errorf("ckks: marshal: bad level %d", ct.Level)
	}
	enc := byte(encWord)
	if packed {
		if p.LimbBits > PackedWordBits {
			return nil, fmt.Errorf("ckks: packed encoding needs limbs ≤ %d bits", PackedWordBits)
		}
		enc = encPacked
	}
	n := p.N()
	coeffCount := 2 * ct.Level * n
	var payload int
	if packed {
		payload = (coeffCount*PackedWordBits + 7) / 8
	} else {
		payload = coeffCount * 8
	}
	out := make([]byte, headerLen()+payload)
	copy(out, wireMagic)
	out[4] = wireVersion
	out[5] = enc
	out[6] = byte(p.LogN)
	out[7] = byte(ct.Level)
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(ct.Scale))
	if ct.C0.IsNTT {
		out[16] = 1
	}
	if ct.C1.IsNTT != ct.C0.IsNTT {
		return nil, fmt.Errorf("ckks: marshal: mixed-domain ciphertext")
	}

	body := out[headerLen():]
	rows := polyRows(ct.Level, ct.C0, ct.C1)
	if packed {
		if err := packRows(p.RingAt(ct.Level), body, rows); err != nil {
			return nil, err
		}
	} else {
		for i, row := range rows {
			for j, c := range row {
				binary.LittleEndian.PutUint64(body[(i*n+j)*8:], c)
			}
		}
	}
	return out, nil
}

// UnmarshalCiphertext reverses MarshalCiphertext.
func (p *Parameters) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	if len(data) < headerLen() || string(data[:4]) != wireMagic {
		return nil, fmt.Errorf("ckks: unmarshal: bad magic/short data")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("ckks: unmarshal: unsupported version %d", data[4])
	}
	enc := data[5]
	if int(data[6]) != p.LogN {
		return nil, fmt.Errorf("ckks: unmarshal: logN %d does not match parameters (%d)", data[6], p.LogN)
	}
	level := int(data[7])
	if level < 1 || level > p.MaxLevel() {
		return nil, fmt.Errorf("ckks: unmarshal: bad level %d", level)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	if !validWireScale(scale) {
		return nil, fmt.Errorf("ckks: unmarshal: invalid scale %g", scale)
	}
	if data[16] > 1 { // no marshaler emits it; accepting it would break canonical re-marshal
		return nil, fmt.Errorf("ckks: unmarshal: unknown domain byte %d", data[16])
	}
	isNTT := data[16] == 1

	n := p.N()
	coeffCount := 2 * level * n
	var payload int
	switch enc {
	case encPacked:
		payload = (coeffCount*PackedWordBits + 7) / 8
	case encWord:
		payload = coeffCount * 8
	default:
		return nil, fmt.Errorf("ckks: unmarshal: unknown encoding %d", enc)
	}
	if len(data) != headerLen()+payload {
		return nil, fmt.Errorf("ckks: unmarshal: payload length %d, want %d",
			len(data)-headerLen(), payload)
	}

	rl := p.RingAt(level)
	ct := &Ciphertext{C0: rl.NewPoly(), C1: rl.NewPoly(), Level: level, Scale: scale}
	body := data[headerLen():]
	rows := polyRows(level, ct.C0, ct.C1)
	if enc == encPacked {
		if err := unpackRows(rl, body, rows); err != nil {
			return nil, fmt.Errorf("ckks: unmarshal: %w", err)
		}
	} else {
		for i, row := range rows {
			q := rl.Basis.Moduli[i%level].Q
			for j := range row {
				c := binary.LittleEndian.Uint64(body[(i*n+j)*8:])
				if c >= q {
					return nil, fmt.Errorf("ckks: unmarshal: residue %d ≥ q_%d", c, i%level)
				}
				row[j] = c
			}
		}
	}
	ct.C0.IsNTT = isNTT
	ct.C1.IsNTT = isNTT
	return ct, nil
}

// CiphertextWireBytes returns the packed wire size at a level — the
// number the DRAM model in internal/sim charges per ciphertext transfer.
func (p *Parameters) CiphertextWireBytes(level int) int {
	return headerLen() + (2*level*p.N()*PackedWordBits+7)/8
}

// validWireScale is the shared hardening predicate for scale fields read
// from untrusted bytes: finite and strictly positive (NaN fails the
// comparison). Both ciphertext unmarshalers use it, so the accepted
// domain is identical on the full and seeded paths.
func validWireScale(scale float64) bool {
	return scale > 0 && !math.IsInf(scale, 0)
}
