package ckks

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ring"
)

// Key wire formats. Keys cross machine boundaries in the role-separated
// deployment the paper assumes — the key owner exports a public key to a
// fleet of encrypting devices and (optionally) escrows its secret key —
// so both get a packed format reusing the 44-bit residue packer the
// ciphertext stream uses.
//
// Layout (little-endian):
//
//	magic "ABCF" | version u8 | kind u8 ('P' public, 'S' secret) |
//	logN u8 | limbBits u8 | limbs u8 | logScale u8 | hw u16 | mantBits u8 |
//	specialLimbs u8 |
//	[secret only: owner seed, 16 bytes] |
//	packed residues (PackedWordBits each, NTT domain, full depth):
//	  public: P0 then P1 — secret: S
//
// specialLimbs is the hybrid key-switching chain length k (0 when the
// parameter set carries none): it rides in every key blob because the
// receiving party must rebuild the full parameter geometry — including the
// P chain a hybrid evaluation-key blob will reference — from the bytes
// alone.
//
// Unlike ciphertexts, key blobs embed the full ParamSpec: a device can
// build an Encryptor from nothing but these bytes (ReadKeySpec → Build →
// UnmarshalPublicKey), which is exactly the cross-machine bootstrap the
// public API's Encryptor role performs.
const (
	// KeyKindPublic and KeyKindSecret are the kind discriminators at byte 5
	// of a key blob (disjoint from the ciphertext form bytes 1 and 0x81).
	KeyKindPublic byte = 'P'
	KeyKindSecret byte = 'S'
)

func keyHeaderLen() int { return 4 + 1 + 1 + 1 + 1 + 1 + 1 + 2 + 1 + 1 }

// Spec reconstructs the (normalized) ParamSpec these parameters were built
// from. MantBits is the resolved width, never 0.
func (p *Parameters) Spec() ParamSpec {
	return ParamSpec{
		LogN: p.LogN, LimbBits: p.LimbBits, Limbs: p.Limbs,
		LogScale: p.LogScale, HW: p.HW, MantBits: p.MantBits,
		SpecialLimbs: p.SpecialLimbs,
	}
}

// putKeyHeader writes the spec-embedding header; the spec fields must fit
// their wire widths (guaranteed for anything Build accepts).
func (p *Parameters) putKeyHeader(out []byte, kind byte) error {
	if p.Limbs > 255 || p.LogScale > 255 || p.LimbBits > 255 || p.HW > 0xFFFF || p.MantBits > 255 || p.SpecialLimbs > 255 {
		return fmt.Errorf("ckks: marshal key: spec field exceeds wire width")
	}
	copy(out, wireMagic)
	out[4] = wireVersion
	out[5] = kind
	out[6] = byte(p.LogN)
	out[7] = byte(p.LimbBits)
	out[8] = byte(p.Limbs)
	out[9] = byte(p.LogScale)
	binary.LittleEndian.PutUint16(out[10:], uint16(p.HW))
	out[12] = byte(p.MantBits)
	out[13] = byte(p.SpecialLimbs)
	return nil
}

// ReadKeySpec parses the header of a key blob produced by MarshalPublicKey
// or MarshalSecretKey, returning the embedded parameter spec and the key
// kind — everything needed to Build matching Parameters before
// unmarshaling the key material itself. It never allocates proportionally
// to the input.
func ReadKeySpec(data []byte) (ParamSpec, byte, error) {
	if len(data) < keyHeaderLen() || string(data[:4]) != wireMagic {
		return ParamSpec{}, 0, fmt.Errorf("ckks: key spec: bad magic/short data")
	}
	if data[4] != wireVersion {
		return ParamSpec{}, 0, fmt.Errorf("ckks: key spec: unsupported version %d", data[4])
	}
	kind := data[5]
	if kind != KeyKindPublic && kind != KeyKindSecret && kind != KeyKindEval {
		return ParamSpec{}, 0, fmt.Errorf("ckks: key spec: unknown kind 0x%02x", kind)
	}
	spec := ParamSpec{
		LogN:         int(data[6]),
		LimbBits:     int(data[7]),
		Limbs:        int(data[8]),
		LogScale:     int(data[9]),
		HW:           int(binary.LittleEndian.Uint16(data[10:])),
		MantBits:     int(data[12]),
		SpecialLimbs: int(data[13]),
	}
	// No marshaler can emit a key blob for limbs wider than the packed
	// word, so a header claiming one is forged — and accepting it would
	// build a party whose own exports then fail the marshal-side check.
	if err := checkLimbBits(spec.LimbBits); err != nil {
		return ParamSpec{}, 0, fmt.Errorf("ckks: key spec: %w", err)
	}
	return spec, kind, nil
}

// checkKeyPoly verifies a key polynomial has the full-depth NTT shape the
// wire format assumes.
func (p *Parameters) checkKeyPoly(poly *ring.Poly) error {
	if poly == nil || !poly.IsNTT || len(poly.Coeffs) != p.Limbs {
		return fmt.Errorf("ckks: marshal key: polynomial must be NTT-domain at full depth")
	}
	for _, row := range poly.Coeffs {
		if len(row) != p.N() {
			return fmt.Errorf("ckks: marshal key: limb length %d, want %d", len(row), p.N())
		}
	}
	return nil
}

// marshalKey packs the header, an optional seed block, and the key
// polynomials' residues.
func (p *Parameters) marshalKey(kind byte, seed []byte, polys ...*ring.Poly) ([]byte, error) {
	for _, poly := range polys {
		if err := p.checkKeyPoly(poly); err != nil {
			return nil, err
		}
	}
	out := make([]byte, keyHeaderLen()+len(seed)+packedBytes(len(polys)*p.Limbs, p.N()))
	if err := p.putKeyHeader(out, kind); err != nil {
		return nil, err
	}
	copy(out[keyHeaderLen():], seed)
	if err := packRows(p.Ring(), out[keyHeaderLen()+len(seed):], polyRows(p.Limbs, polys...)); err != nil {
		return nil, err
	}
	return out, nil
}

// unmarshalKey validates the header against p, then unpacks seedLen bytes
// of seed material and nPolys full-depth polynomials, validating every
// residue. The payload length is checked before any allocation, so
// truncated or padded inputs fail fast without memory churn.
func (p *Parameters) unmarshalKey(data []byte, kind byte, seedLen, nPolys int) ([]byte, []*ring.Poly, error) {
	spec, gotKind, err := ReadKeySpec(data)
	if err != nil {
		return nil, nil, err
	}
	if gotKind != kind {
		return nil, nil, fmt.Errorf("ckks: unmarshal key: kind 0x%02x, want 0x%02x", gotKind, kind)
	}
	if spec != p.Spec() {
		return nil, nil, fmt.Errorf("ckks: unmarshal key: embedded spec %+v does not match parameters", spec)
	}
	payload := packedBytes(nPolys*p.Limbs, p.N())
	if len(data) != keyHeaderLen()+seedLen+payload {
		return nil, nil, fmt.Errorf("ckks: unmarshal key: payload length %d, want %d",
			len(data)-keyHeaderLen(), seedLen+payload)
	}
	seed := data[keyHeaderLen() : keyHeaderLen()+seedLen]
	polys := make([]*ring.Poly, nPolys)
	for k := range polys {
		polys[k] = p.Ring().NewPoly()
		polys[k].IsNTT = true
	}
	if err := unpackRows(p.Ring(), data[keyHeaderLen()+seedLen:], polyRows(p.Limbs, polys...)); err != nil {
		return nil, nil, fmt.Errorf("ckks: unmarshal key: %w", err)
	}
	return seed, polys, nil
}

// MarshalPublicKey serializes pk in the packed key wire format.
func (p *Parameters) MarshalPublicKey(pk *PublicKey) ([]byte, error) {
	if pk == nil {
		return nil, fmt.Errorf("ckks: marshal public key: nil key")
	}
	return p.marshalKey(KeyKindPublic, nil, pk.P0, pk.P1)
}

// UnmarshalPublicKey reverses MarshalPublicKey, validating the embedded
// spec against p and every residue against the modulus chain.
func (p *Parameters) UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	_, polys, err := p.unmarshalKey(data, KeyKindPublic, 0, 2)
	if err != nil {
		return nil, err
	}
	return &PublicKey{P0: polys[0], P1: polys[1]}, nil
}

// MarshalSecretKey serializes sk together with the owner's 16-byte PRNG
// seed — the seed is secret material of the same sensitivity as sk itself
// (it regenerates the whole keypair), and carrying it lets a re-imported
// key owner keep producing seeded compressed uploads.
func (p *Parameters) MarshalSecretKey(sk *SecretKey, seed [16]byte) ([]byte, error) {
	if sk == nil {
		return nil, fmt.Errorf("ckks: marshal secret key: nil key")
	}
	return p.marshalKey(KeyKindSecret, seed[:], sk.S)
}

// UnmarshalSecretKey reverses MarshalSecretKey, returning the key and the
// owner seed embedded alongside it.
func (p *Parameters) UnmarshalSecretKey(data []byte) (*SecretKey, [16]byte, error) {
	var seed [16]byte
	seedBytes, polys, err := p.unmarshalKey(data, KeyKindSecret, 16, 1)
	if err != nil {
		return nil, seed, err
	}
	copy(seed[:], seedBytes)
	return &SecretKey{S: polys[0]}, seed, nil
}

// KeySpecWireBytes computes the exact blob size a key of the given kind
// must have under spec — from the header alone, without building
// Parameters. Wire-facing constructors use it to reject length-mismatched
// blobs *before* paying for prime generation and NTT tables, so a hostile
// header can never demand allocations disproportionate to the bytes
// actually supplied. Returns 0 for an unknown kind.
func KeySpecWireBytes(spec ParamSpec, kind byte) int {
	n := 1 << uint(spec.LogN)
	switch kind {
	case KeyKindPublic:
		return keyHeaderLen() + packedBytes(2*spec.Limbs, n)
	case KeyKindSecret:
		return keyHeaderLen() + 16 + packedBytes(spec.Limbs, n)
	}
	return 0
}
