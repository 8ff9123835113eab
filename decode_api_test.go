package abcfhe

// Tests for the lane-parallel decode path at the public-API level, on the
// role types: batch vs sequential equivalence, buffer-reuse semantics of
// the Into variants, worker-count bit-determinism and concurrent-use
// safety of DecryptDecodeBatch on a shared KeyOwner (run with -race; CI
// does).

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// decodeTestCiphertexts encrypts n messages on the device and drops every
// other ciphertext to the paper's 2-limb return state on the server, so
// the decode tests exercise every cached level view.
func decodeTestCiphertexts(t testing.TB, device *Encryptor, server *Server, n int) []*Ciphertext {
	t.Helper()
	msgs := testMsgs(device.Slots(), n)
	cts, err := device.EncodeEncryptBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range cts {
		if i%2 == 1 {
			if cts[i], err = server.DropLevel(ct, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cts
}

func slotsEqualBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestDecryptDecodeBatchMatchesSequential: the batch path must emit
// exactly the slot vectors sequential DecryptDecode calls produce.
func TestDecryptDecodeBatchMatchesSequential(t *testing.T) {
	owner, device, server := threeParties(t, Test, 5, 6)
	cts := decodeTestCiphertexts(t, device, server, 5)

	batch, err := owner.DecryptDecodeBatch(cts)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range cts {
		single, err := owner.DecryptDecode(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !slotsEqualBits(batch[i], single) {
			t.Fatalf("batch message %d differs from sequential decode", i)
		}
	}
}

// TestDecryptDecodeBatchInto pins the buffer-reuse contract: non-nil
// entries are written in place, nil entries allocated, and a mis-sized
// batch is a typed error.
func TestDecryptDecodeBatchInto(t *testing.T) {
	owner, device, server := threeParties(t, Test, 7, 9)
	cts := decodeTestCiphertexts(t, device, server, 3)
	ref, err := owner.DecryptDecodeBatch(cts)
	if err != nil {
		t.Fatal(err)
	}

	out := make([][]complex128, len(cts))
	out[0] = make([]complex128, owner.Slots()) // reused in place
	reused := out[0]
	got, err := owner.DecryptDecodeBatchInto(cts, out)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0][0] != &reused[0] {
		t.Fatal("provided buffer was not reused")
	}
	for i := range ref {
		if !slotsEqualBits(got[i], ref[i]) {
			t.Fatalf("BatchInto message %d differs from DecryptDecodeBatch", i)
		}
	}

	if _, err := owner.DecryptDecodeBatchInto(cts, make([][]complex128, len(cts)-1)); err == nil {
		t.Fatal("mis-sized batch output must error")
	}
}

// TestDecodeDeterminismAcrossWorkers: DecryptDecode and the batch path
// must produce bit-identical slot values at worker counts 1, 2 and 8 —
// across parties that were built independently at each worker count.
func TestDecodeDeterminismAcrossWorkers(t *testing.T) {
	var refSingle []complex128
	var refBatch [][]complex128
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			owner, device, server := threeParties(t, Test, 0xABC, 0xF0E, WithWorkers(w))
			defer owner.Close()
			defer device.Close()
			defer server.Close()
			cts := decodeTestCiphertexts(t, device, server, 3)

			single, err := owner.DecryptDecode(cts[1])
			if err != nil {
				t.Fatal(err)
			}
			batch, err := owner.DecryptDecodeBatch(cts)
			if err != nil {
				t.Fatal(err)
			}

			if refSingle == nil {
				refSingle, refBatch = single, batch
				return
			}
			if !slotsEqualBits(single, refSingle) {
				t.Fatal("DecryptDecode output differs from the 1-worker reference")
			}
			for i := range refBatch {
				if !slotsEqualBits(batch[i], refBatch[i]) {
					t.Fatalf("batch message %d differs from the 1-worker reference", i)
				}
			}
		})
	}
}

// TestConcurrentDecryptDecodeBatch hammers one shared KeyOwner with
// concurrent batch decodes (the decryptor is stateless and the scratch
// pools are the only shared mutable state) — the -race acceptance test
// for the decode pipeline.
func TestConcurrentDecryptDecodeBatch(t *testing.T) {
	owner, device, server := threeParties(t, Test, 21, 22)
	cts := decodeTestCiphertexts(t, device, server, 4)
	ref, err := owner.DecryptDecodeBatch(cts)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				got, err := owner.DecryptDecodeBatch(cts)
				if err != nil {
					errs <- err
					return
				}
				for i := range ref {
					if !slotsEqualBits(got[i], ref[i]) {
						errs <- fmt.Errorf("goroutine %d iter %d: message %d mismatch", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
