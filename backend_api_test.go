package abcfhe

// Public-surface property test of the execution-backend contract: every
// operation of the role-separated API produces byte-identical ciphertexts
// under the portable and fast backends, at any worker count. Backends and
// worker counts are execution strategy only — the wire bytes are part of
// the protocol and must not depend on either.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// backendRun drives the full three-party pipeline under one (backend,
// workers) configuration and returns the serialized bytes of every key
// blob and every intermediate ciphertext. compressed is one seeded upload
// shared by all configurations (an owner draws its stream base at random,
// so a fresh upload per run could not be compared).
func backendRun(t *testing.T, backend string, workers int, compressed []byte) map[string][]byte {
	t.Helper()
	opts := []Option{WithWorkers(workers), WithBackend(backend)}
	owner, device, server := threeParties(t, Test, 0xBACC, 0xE57, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()

	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		Rotations: []int{1, 2},
		Conjugate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}

	msgs := testMsgs(device.Slots(), 2)
	ct1, err := device.EncodeEncrypt(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := device.EncodeEncrypt(msgs[1])
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
	out := map[string][]byte{"public key": pkBytes, "secret key": skBytes, "evaluation keys": evkBytes}
	record := func(name string, ct *Ciphertext, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s (backend=%s workers=%d): %v", name, backend, workers, err)
		}
		blob, err := server.SerializeCiphertext(ct)
		if err != nil {
			t.Fatalf("serialize %s: %v", name, err)
		}
		out[name] = blob
	}
	record("encrypt", ct1, nil)
	expanded, err := server.ExpandCompressedUpload(compressed)
	record("expand", expanded, err)

	mul, err := server.Mul(ct1, ct2, evk)
	record("mul", mul, err)
	rot, err := server.Rotate(ct1, 2, evk)
	record("rotate", rot, err)
	conj, err := server.Conjugate(ct1, evk)
	record("conjugate", conj, err)
	isum, err := server.InnerSum(ct1, 4, evk)
	record("innersum", isum, err)

	// Decode determinism rides the same bytes: same ciphertext bytes in,
	// identical float64s out (pure deterministic arithmetic).
	dec, err := owner.DecryptDecode(ct1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, v := range dec[:8] {
		fmt.Fprintf(&buf, "%x/%x;", real(v), imag(v))
	}
	out["decode"] = buf.Bytes()
	return out
}

// TestBackendWorkerInvariance sweeps both backends across worker counts
// 1, 2 and 8; every configuration must produce the same bytes as the
// portable single-worker reference.
func TestBackendWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 6 full pipelines")
	}
	uploader, err := NewKeyOwner(Test, 0xBACC, 0xE57)
	if err != nil {
		t.Fatal(err)
	}
	defer uploader.Close()
	compressed, err := uploader.EncodeEncryptCompressed(testMsgs(uploader.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	ref := backendRun(t, "portable", 1, compressed)
	for _, backend := range []string{"portable", "fast"} {
		for _, workers := range []int{1, 2, 8} {
			if backend == "portable" && workers == 1 {
				continue
			}
			got := backendRun(t, backend, workers, compressed)
			for name, want := range ref {
				if !bytes.Equal(got[name], want) {
					t.Fatalf("%s: bytes diverge under backend=%s workers=%d", name, backend, workers)
				}
			}
		}
	}
}

// TestWithBackendUnknownName: a typo in the backend name must surface as
// ErrUnknownBackend at construction, never silently fall back — and on
// the wire-bytes constructors it must stay an option error, not get
// branded ErrMalformedWire (the blob is fine; the option is not).
func TestWithBackendUnknownName(t *testing.T) {
	_, err := NewServer(Test, WithBackend("simd512"))
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("got %v, want ErrUnknownBackend", err)
	}

	owner, err := NewKeyOwner(Test, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEncryptor(pk, 3, 4, WithBackend("simd512"))
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("got %v, want ErrUnknownBackend", err)
	}
	if errors.Is(err, ErrMalformedWire) {
		t.Fatalf("unknown backend on a valid blob branded as malformed wire: %v", err)
	}
}
