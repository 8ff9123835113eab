package abcfhe

// Tests for the role-separated v1 API: the cross-machine property (an
// Encryptor bootstrapped from nothing but exported public-key bytes
// produces ciphertexts the KeyOwner decrypts correctly), key wire-format
// round trips across every preset, and determinism of the device role at
// any worker count.

import (
	"bytes"
	"fmt"
	"math/cmplx"
	"testing"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// testMsgs builds n deterministic full-slot messages.
func testMsgs(slots, n int) [][]complex128 {
	msgs := make([][]complex128, n)
	for k := range msgs {
		msg := make([]complex128, slots)
		for i := range msg {
			msg[i] = complex(float64((i+3*k)%17)/17-0.5, float64((i+5*k)%13)/13-0.5)
		}
		msgs[k] = msg
	}
	return msgs
}

// threeParties wires up a deployment for tests: a KeyOwner, a device
// Encryptor bootstrapped from the owner's exported public-key bytes (its
// own randomness seed), and a keyless Server. The only thing crossing
// between them is the public-key blob.
func threeParties(t testing.TB, preset Preset, seedLo, seedHi uint64, opts ...Option) (*KeyOwner, *Encryptor, *Server) {
	t.Helper()
	owner, err := NewKeyOwner(preset, seedLo, seedHi, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	device, err := NewEncryptor(pkBytes, seedLo^0xD0D0, seedHi+1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(preset, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return owner, device, server
}

// TestThreePartyCrossMachineFlow is the headline integration test: an
// Encryptor on one "machine" built from nothing but bytes, ciphertext
// bytes shipped to a Server, decryption on the KeyOwner — asserting that
// no in-memory state was shared between the parties.
func TestThreePartyCrossMachineFlow(t *testing.T) {
	// Machine 1: the key owner. Only pkBytes leaves it.
	owner, err := NewKeyOwner(Test, 0xA11CE, 0xB0B)
	if err != nil {
		t.Fatal(err)
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}

	// Machine 2: a fleet device, bootstrapped from the blob alone.
	device, err := NewEncryptor(pkBytes, 0xFEED, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	upload, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	// Machine 3: the keyless server. Only ciphertext bytes arrive.
	server, err := NewServer(Test)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := server.DeserializeCiphertext(upload)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := server.Add(recv, recv)
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := server.SerializeCiphertext(low)
	if err != nil {
		t.Fatal(err)
	}

	// Back on machine 1: decrypt the reply bytes.
	replyCt, err := owner.DeserializeCiphertext(reply)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(replyCt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		want := 2 * msg[i]
		if cmplx.Abs(got[i]-want) > 1e-4 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}

	// No in-memory state shared: each party built its own parameter set
	// (and with it its own rings, pools and tables) — the only coupling is
	// the bytes that crossed above.
	if owner.params == device.params || owner.params == server.params || device.params == server.params {
		t.Fatal("parties share a Parameters instance")
	}
	if owner.params.Ring() == device.params.Ring() || owner.params.Ring() == server.params.Ring() {
		t.Fatal("parties share a ring")
	}
	// The device never saw secret material; its public key is a distinct
	// copy reconstructed from the wire, not the owner's object.
	if device.enc == nil {
		t.Fatal("device encryptor missing")
	}
}

// TestKeyRoundTripAllPresets pins the key wire formats for every preset:
// exports are canonical (byte-identical re-marshal), a KeyOwner imported
// from secret-key bytes regenerates the identical public key, and the
// cross-machine encrypt→decrypt path still meets the PR 2 precision
// floors at the paper's 2-limb return level.
func TestKeyRoundTripAllPresets(t *testing.T) {
	floors := map[Preset]float64{PN16: 40, PN15: 40, PN14: 40, PN13: 40, Test: 14}
	for _, preset := range Presets() {
		t.Run(string(preset), func(t *testing.T) {
			spec, _ := preset.spec()
			if testing.Short() && spec.LogN >= 14 {
				t.Skipf("skipping logN=%d in -short mode", spec.LogN)
			}
			owner, err := NewKeyOwner(preset, 0xC0FFEE, uint64(spec.LogN))
			if err != nil {
				t.Fatal(err)
			}
			pkBytes, err := owner.ExportPublicKey()
			if err != nil {
				t.Fatal(err)
			}
			skBytes, err := owner.ExportSecretKey()
			if err != nil {
				t.Fatal(err)
			}

			// Re-export is byte-identical (canonical encoding).
			again, _ := owner.ExportPublicKey()
			if !bytes.Equal(pkBytes, again) {
				t.Fatal("public-key re-export not byte-identical")
			}

			// Import on a "new machine": the secret blob alone rebuilds the
			// owner — including the regenerated public key, byte-for-byte.
			owner2, err := NewKeyOwnerFromSecretKey(skBytes)
			if err != nil {
				t.Fatal(err)
			}
			pk2, err := owner2.ExportPublicKey()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pkBytes, pk2) {
				t.Fatal("imported owner regenerates a different public key")
			}
			sk2, _ := owner2.ExportSecretKey()
			if !bytes.Equal(skBytes, sk2) {
				t.Fatal("secret-key re-export not byte-identical")
			}

			// Cross-machine property at this preset: device from bytes,
			// 2-limb return, imported owner decrypts, precision floor holds.
			device, err := NewEncryptor(pkBytes, 0xDEAF, 0xD00F)
			if err != nil {
				t.Fatal(err)
			}
			server, err := NewServer(preset)
			if err != nil {
				t.Fatal(err)
			}
			msg := testMsgs(device.Slots(), 1)[0]
			ct, err := device.EncodeEncrypt(msg)
			if err != nil {
				t.Fatal(err)
			}
			low, err := server.DropLevel(ct, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := owner2.DecryptDecode(low)
			if err != nil {
				t.Fatal(err)
			}
			stats := ckks.MeasurePrecision(msg, got)
			t.Logf("worst-slot precision %.2f bits", stats.WorstBits)
			if stats.WorstBits < floors[preset] {
				t.Fatalf("worst-slot precision %.2f bits below floor %.0f", stats.WorstBits, floors[preset])
			}
		})
	}
}

// TestEncryptorWorkerDeterminism: a device built from the same public-key
// bytes with the same seed emits byte-identical ciphertexts at any worker
// count, single-shot and batched.
func TestEncryptorWorkerDeterminism(t *testing.T) {
	owner, err := NewKeyOwner(Test, 0xABC, 0xF0E)
	if err != nil {
		t.Fatal(err)
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}

	var refSingle, refBatch []byte
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			device, err := NewEncryptor(pkBytes, 0x5EED, 0x5EED, WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			defer device.Close()
			if device.Workers() != w {
				t.Fatalf("device reports %d workers, want %d", device.Workers(), w)
			}
			msgs := testMsgs(device.Slots(), 3)

			ct, err := device.EncodeEncrypt(msgs[0])
			if err != nil {
				t.Fatal(err)
			}
			single, err := device.SerializeCiphertext(ct)
			if err != nil {
				t.Fatal(err)
			}
			cts, err := device.EncodeEncryptBatch(msgs)
			if err != nil {
				t.Fatal(err)
			}
			var batch bytes.Buffer
			for _, ct := range cts {
				b, err := device.SerializeCiphertext(ct)
				if err != nil {
					t.Fatal(err)
				}
				batch.Write(b)
			}

			if refSingle == nil {
				refSingle, refBatch = single, batch.Bytes()
				return
			}
			if !bytes.Equal(single, refSingle) {
				t.Fatal("EncodeEncrypt output differs from the 1-worker reference")
			}
			if !bytes.Equal(batch.Bytes(), refBatch) {
				t.Fatal("EncodeEncryptBatch output differs from the 1-worker reference")
			}
		})
	}
}

// TestSeededUploadsNoStreamReuse: two KeyOwner instances over the same
// key material (restart/migration) must never reuse a (seed, stream)
// pair — otherwise c0 − c0' would equal the plaintext difference with no
// noise. Each instance draws a random stream base, so first uploads from
// re-imported owners differ, and both still expand and decrypt.
func TestSeededUploadsNoStreamReuse(t *testing.T) {
	owner, err := NewKeyOwner(Test, 0x7EA, 0x5EA)
	if err != nil {
		t.Fatal(err)
	}
	skBytes, err := owner.ExportSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(Test)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMsgs(owner.Slots(), 1)[0]

	var uploads [][]byte
	for i := 0; i < 2; i++ {
		imported, err := NewKeyOwnerFromSecretKey(skBytes)
		if err != nil {
			t.Fatal(err)
		}
		data, err := imported.EncodeEncryptCompressed(msg)
		if err != nil {
			t.Fatal(err)
		}
		uploads = append(uploads, data)

		ct, err := server.ExpandCompressedUpload(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := owner.DecryptDecode(ct)
		if err != nil {
			t.Fatal(err)
		}
		for j := range msg {
			if cmplx.Abs(got[j]-msg[j]) > 1e-4 {
				t.Fatalf("instance %d slot %d error %g", i, j, cmplx.Abs(got[j]-msg[j]))
			}
		}
	}
	if bytes.Equal(uploads[0], uploads[1]) {
		t.Fatal("two instances reused the same (seed, stream) pair — two-time pad")
	}
}

// TestCompressedUploadDoesNotLeakMasterSeed: the compressed wire form
// carries its mask seed in the clear (the server regenerates c1 from
// it), so it must be the one-way derived upload seed — anyone who could
// read the master seed off the wire could regenerate the whole keypair.
func TestCompressedUploadDoesNotLeakMasterSeed(t *testing.T) {
	const lo, hi = 0xBADC0DE, 0xC0C0A
	owner, err := NewKeyOwner(Test, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	data, err := owner.EncodeEncryptCompressed(testMsgs(owner.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}

	// Seeded wire layout: 17-byte header | 16-byte mask seed | stream u64.
	var wireSeed [16]byte
	copy(wireSeed[:], data[17:33])
	if wireSeed == prng.SeedFromUint64s(lo, hi) {
		t.Fatal("compressed upload transmits the master seed")
	}
	// Key generation from the transmitted seed must not reproduce the
	// owner's secret key.
	skFromWire := ckks.NewKeyGenerator(owner.params, wireSeed).GenSecretKey()
	same := true
	for i := range skFromWire.S.Coeffs[0] {
		if skFromWire.S.Coeffs[0][i] != owner.secret.S.Coeffs[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("transmitted seed regenerates the owner's secret key")
	}
}

// TestCompressedUploadAcrossParties: the seeded upload path through the
// role API — owner compresses, keyless server expands, owner decrypts the
// serialized reply.
func TestCompressedUploadAcrossParties(t *testing.T) {
	owner, _, server := threeParties(t, Test, 777, 888)
	msg := testMsgs(owner.Slots(), 1)[0]

	compressed, err := owner.EncodeEncryptCompressed(msg)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes, err := server.CiphertextWireBytes(owner.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(compressed)) > 0.52*float64(fullBytes) {
		t.Fatalf("compressed upload %d bytes not ≈half of %d", len(compressed), fullBytes)
	}
	want, err := owner.CompressedWireBytes(owner.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) != want {
		t.Fatal("compressed size does not match the reported wire size")
	}

	expanded, err := server.ExpandCompressedUpload(compressed)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := server.SerializeCiphertext(expanded)
	if err != nil {
		t.Fatal(err)
	}
	back, err := owner.DeserializeCiphertext(reply)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if cmplx.Abs(got[i]-msg[i]) > 1e-4 {
			t.Fatalf("slot %d error %g", i, cmplx.Abs(got[i]-msg[i]))
		}
	}
}
