package abcfhe

// Hostile-header hardening for the public constructors: NewEncryptor and
// NewKeyOwnerFromSecretKey consume fully untrusted bytes, including the
// embedded ParamSpec — every field of which an attacker controls. The
// contract is errors only: no panics (the spec is range-validated and the
// prime generator's panics are converted at the Build boundary) and no
// allocations disproportionate to the supplied bytes (the blob length is
// checked against the spec-implied size before parameters are built).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func fuzzKeyBlobs(t testing.TB) (pk, sk, evk []byte) {
	t.Helper()
	owner, err := NewKeyOwner(Test, 0xFA2, 0xB17)
	if err != nil {
		t.Fatal(err)
	}
	if pk, err = owner.ExportPublicKey(); err != nil {
		t.Fatal(err)
	}
	if sk, err = owner.ExportSecretKey(); err != nil {
		t.Fatal(err)
	}
	if evk, err = owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: 2, Rotations: []int{1}}); err != nil {
		t.Fatal(err)
	}
	return pk, sk, evk
}

func tryKeyBlob(data []byte) {
	if enc, err := NewEncryptor(data, 1, 2); err == nil {
		// Accepted blobs must yield a working device.
		if _, err := enc.EncodeEncrypt([]complex128{0.5}); err != nil {
			panic("accepted public key cannot encrypt: " + err.Error())
		}
	}
	if owner, err := NewKeyOwnerFromSecretKey(data); err == nil {
		if _, err := owner.ExportPublicKey(); err != nil {
			panic("accepted secret key cannot re-export: " + err.Error())
		}
	}
	if srv, evk, err := NewServerFromEvaluationKeys(data); err == nil {
		// Accepted evaluation keys must describe themselves consistently.
		if evk.MaxLevel() < 1 || evk.MaxLevel() > srv.MaxLevel() {
			panic("accepted evaluation keys report an impossible depth")
		}
		_ = evk.RotationSteps()
	}
}

func FuzzNewEncryptor(f *testing.F) {
	pk, sk, evk := fuzzKeyBlobs(f)
	f.Add(pk)
	f.Add(sk)
	f.Add(evk)
	// One mutation per header byte so the corpus reaches every spec field
	// (19 covers the key header plus the evaluation sub-header).
	for _, blob := range [][]byte{pk, evk} {
		for i := 0; i < 19 && i < len(blob); i++ {
			d := append([]byte(nil), blob...)
			d[i] ^= 0xFF
			f.Add(d)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tryKeyBlob(data)
	})
}

// TestKeyBlobHeaderSweep is the deterministic slice of FuzzNewEncryptor
// that runs on every push: every header byte of all three blob kinds
// driven through adversarial values (zero, sign bits, all-ones, small
// deltas) — this is exactly the class of input that used to panic inside
// prime generation or demand GB-scale tables before the spec/length
// gates. For the evaluation blob the swept range also covers the geometry
// sub-header (digits, depth, flags, layout byte, mask seed, rotation
// count/steps).
func TestKeyBlobHeaderSweep(t *testing.T) {
	pk, sk, evk := fuzzKeyBlobs(t)
	for _, blob := range [][]byte{pk, sk, evk} {
		headerBytes := 13
		if blob[5] == 'E' {
			headerBytes = 14 + 5 + 16 + 2 + 4 // key header + sub-header + first rotation step
		}
		for i := 0; i < headerBytes; i++ {
			orig := blob[i]
			// 0x2D/0x3D land limbBits in the forged (44, 61] window that
			// passes range validation but that no marshaler can emit.
			for _, v := range []byte{0x00, 0x01, 0x2D, 0x3D, 0x3F, 0x7F, 0x80, 0xFF, orig ^ 0x01, orig ^ 0xFF} {
				d := append([]byte(nil), blob...)
				d[i] = v
				tryKeyBlob(d)
			}
		}
		// Truncations around every boundary the parsers care about.
		for _, cut := range []int{0, 4, 12, 13, 28, 29, len(blob) / 2, len(blob) - 1} {
			if cut < len(blob) {
				tryKeyBlob(blob[:cut])
			}
		}
		tryKeyBlob(append(append([]byte(nil), blob...), 0))
	}
}

// Ciphertext bytes are the one form in which a caller controls a
// ciphertext's level, scale, domain and residues: a Ciphertext value
// itself is built only by this package. Every forged header must stop at
// the deserializers with ErrMalformedWire, and every accepted blob must
// be a working ciphertext that re-serializes to the same bytes.

func fuzzCiphertextParties(t testing.TB) (*KeyOwner, *Server, []byte) {
	t.Helper()
	owner, device, server := threeParties(t, Test, 0xC7F, 0xC80)
	ct, err := device.EncodeEncrypt(testMsgs(device.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	blob, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	return owner, server, blob
}

func tryCiphertextBlob(t testing.TB, owner *KeyOwner, server *Server, data []byte) {
	for _, p := range []*party{&owner.party, &server.party} {
		ct, err := p.DeserializeCiphertext(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedWire) {
				t.Fatalf("rejection without ErrMalformedWire: %v", err)
			}
			continue
		}
		again, err := p.SerializeCiphertext(ct)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted blob does not re-serialize to its bytes: %v", err)
		}
		if _, err := owner.DecryptDecode(ct); err != nil {
			t.Fatalf("accepted blob does not decrypt: %v", err)
		}
		if _, err := server.Negate(ct); err != nil {
			t.Fatalf("accepted blob is not a server operand: %v", err)
		}
	}
}

func FuzzDeserializeCiphertext(f *testing.F) {
	owner, server, blob := fuzzCiphertextParties(f)
	f.Add(blob)
	for i := 0; i < 17; i++ {
		d := append([]byte(nil), blob...)
		d[i] ^= 0xFF
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tryCiphertextBlob(t, owner, server, data)
	})
}

// TestCiphertextHeaderSweep is the deterministic slice of
// FuzzDeserializeCiphertext: every header byte (magic, version, form,
// log N, level, scale, domain) through adversarial values, and
// truncations at every header boundary.
func TestCiphertextHeaderSweep(t *testing.T) {
	owner, server, blob := fuzzCiphertextParties(t)
	for i := 0; i < 17; i++ {
		orig := blob[i]
		for _, v := range []byte{0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF, orig ^ 0x01, orig ^ 0xFF} {
			d := append([]byte(nil), blob...)
			d[i] = v
			tryCiphertextBlob(t, owner, server, d)
		}
	}
	for _, cut := range []int{0, 4, 8, 16, 17, len(blob) / 2, len(blob) - 1} {
		tryCiphertextBlob(t, owner, server, blob[:cut])
	}
	tryCiphertextBlob(t, owner, server, append(append([]byte(nil), blob...), 0))
}

// wordBlob hand-builds ct in the retired 8-byte word encoding: the
// serialized header with form byte 0, then every residue as a
// little-endian uint64, c0 limbs then c1 limbs.
func wordBlob(t testing.TB, p *party, ct *Ciphertext) []byte {
	t.Helper()
	packed, err := p.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), packed[:17]...)
	out[5] = 0
	for _, rows := range [][][]uint64{ct.ct.C0.Coeffs, ct.ct.C1.Coeffs} {
		for _, row := range rows[:ct.ct.Level] {
			for _, c := range row {
				out = binary.LittleEndian.AppendUint64(out, c)
			}
		}
	}
	return out
}

// TestCiphertextFormsCrossed: each deserializer accepts one form. The
// retired word encoding of a valid ciphertext, a seeded upload handed to
// DeserializeCiphertext and a full ciphertext handed to
// ExpandCompressedUpload all return ErrMalformedWire.
func TestCiphertextFormsCrossed(t *testing.T) {
	owner, device, server := threeParties(t, Test, 0xF0, 0xF1)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := owner.EncodeEncryptCompressed(msg)
	if err != nil {
		t.Fatal(err)
	}
	word := wordBlob(t, &device.party, ct)

	for role, p := range map[string]*party{"owner": &owner.party, "server": &server.party} {
		for name, blob := range map[string][]byte{"word": word, "seeded": seeded} {
			if _, err := p.DeserializeCiphertext(blob); !errors.Is(err, ErrMalformedWire) {
				t.Errorf("%s DeserializeCiphertext(%s blob): %v", role, name, err)
			}
		}
	}
	for name, blob := range map[string][]byte{"word": word, "full": full} {
		if _, err := server.ExpandCompressedUpload(blob); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("ExpandCompressedUpload(%s blob): %v", name, err)
		}
	}

	// Each form still parses at its own entry point.
	if _, err := server.DeserializeCiphertext(full); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ExpandCompressedUpload(seeded); err != nil {
		t.Fatal(err)
	}
}
