package abcfhe

// Hostile-header hardening for the public constructors: NewEncryptor and
// NewKeyOwnerFromSecretKey consume fully untrusted bytes, including the
// embedded ParamSpec — every field of which an attacker controls. The
// contract is errors only: no panics (the spec is range-validated and the
// prime generator's panics are converted at the Build boundary) and no
// allocations disproportionate to the supplied bytes (the blob length is
// checked against the spec-implied size before parameters are built).

import (
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
