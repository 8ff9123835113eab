package abcfhe

// Public-surface property test of the kernel-binding contract: every
// operation of the role-separated API produces byte-identical ciphertexts
// under the portable reference kernels and the fast ones, at any worker
// count. Bindings and worker counts are execution strategy only — the
// wire bytes are part of the protocol and must not depend on either.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/lanes"
)

// withKernels binds a party's limb kernels to b. It is the only way to
// reach the portable binding through the public constructors, and it
// exists only in the tests: the library, the CLIs and the service run
// lanes.Fast.
func withKernels(b lanes.Backend) Option {
	return func(c *config) { c.backend = b }
}

// backendRun drives the full three-party pipeline under one (backend,
// workers) configuration and returns the serialized bytes of every key
// blob and every intermediate ciphertext. compressed is one seeded upload
// shared by all configurations (an owner draws its stream base at random,
// so a fresh upload per run could not be compared).
func backendRun(t *testing.T, backend lanes.Backend, workers int, compressed []byte) map[string][]byte {
	t.Helper()
	opts := []Option{WithWorkers(workers), withKernels(backend)}
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
			t.Fatalf("%s (backend=%s workers=%d): %v", name, backend.Name(), workers, err)
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
	ref := backendRun(t, lanes.Portable, 1, compressed)
	for _, backend := range []lanes.Backend{lanes.Portable, lanes.Fast} {
		for _, workers := range []int{1, 2, 8} {
			if backend == lanes.Portable && workers == 1 {
				continue
			}
			got := backendRun(t, backend, workers, compressed)
			for name, want := range ref {
				if !bytes.Equal(got[name], want) {
					t.Fatalf("%s: bytes diverge under backend=%s workers=%d", name, backend.Name(), workers)
				}
			}
		}
	}
}
