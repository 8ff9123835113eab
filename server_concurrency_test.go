package abcfhe

// Concurrency audit of the Server role: the serve layer (internal/serve)
// dispatches requests from many sessions onto ONE Server instance, so
// every key-gated operation must be safe to call from N goroutines at
// once — including mixes of different operations, which stress different
// scratch-pool shapes simultaneously. Before this test, only per-role
// batch paths (EncryptBatch, DecryptDecodeBatch) were race-exercised.
//
// The test computes reference wire bytes for every (op, input) pair up
// front, then hammers the shared Server from goroutines×iters calls and
// asserts byte-identical results — a data race that silently corrupts
// scratch would show up as a byte diff even when `-race` is off.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestServerConcurrentMixedOps(t *testing.T) {
	owner, enc, srv := threeParties(t, Test, 0xA11CE, 0xB0B)
	defer owner.Close()
	defer enc.Close()
	defer srv.Close()

	// Keys: rotation ladder for InnerSum(4) plus the steps the linear
	// transform below consumes, conjugation for good measure.
	diags := map[int][]complex128{}
	for d := -1; d <= 2; d++ {
		v := make([]complex128, srv.Slots())
		for r := range v {
			v[r] = complex(float64((r+5*d)%9)/9-0.5, float64((r+d)%7)/7-0.5)
		}
		diags[d] = v
	}
	ltLevel := 2 // Test preset: RescalesPerLevel()==1, minimum legal level
	var diagIdx []int
	for d := range diags {
		diagIdx = append(diagIdx, d)
	}
	steps := append(InnerSumRotations(4), 3) // the Rotate op below uses step 3
	steps = append(steps, LinearTransformRotations(srv.Slots(), diagIdx, 0)...)
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		Rotations: steps,
		Conjugate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := srv.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := srv.NewLinearTransform(diags, ltLevel, 0)
	if err != nil {
		t.Fatal(err)
	}

	msgs := testMsgs(enc.Slots(), 2)
	cts, err := enc.EncodeEncryptBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cts[0], cts[1]

	// One closure per operation; each returns the op's serialized result.
	ops := map[string]func() ([]byte, error){
		"mul": func() ([]byte, error) {
			out, err := srv.Mul(a, b, evk)
			if err != nil {
				return nil, err
			}
			return srv.SerializeCiphertext(out)
		},
		"rotate": func() ([]byte, error) {
			out, err := srv.Rotate(a, 3, evk)
			if err != nil {
				return nil, err
			}
			return srv.SerializeCiphertext(out)
		},
		"conjugate": func() ([]byte, error) {
			out, err := srv.Conjugate(b, evk)
			if err != nil {
				return nil, err
			}
			return srv.SerializeCiphertext(out)
		},
		"innersum": func() ([]byte, error) {
			out, err := srv.InnerSum(a, 4, evk)
			if err != nil {
				return nil, err
			}
			return srv.SerializeCiphertext(out)
		},
		"dot": func() ([]byte, error) {
			w := make([]complex128, 4)
			for i := range w {
				w[i] = complex(float64(i+1)/4, 0)
			}
			out, err := srv.DotPlain(a, w, evk)
			if err != nil {
				return nil, err
			}
			return srv.SerializeCiphertext(out)
		},
		"lintrans": func() ([]byte, error) {
			out, err := srv.LinearTransform(b, lt, evk)
			if err != nil {
				return nil, err
			}
			return srv.SerializeCiphertext(out)
		},
	}

	// References, computed serially.
	want := map[string][]byte{}
	for name, fn := range ops {
		ref, err := fn()
		if err != nil {
			t.Fatalf("%s (serial reference): %v", name, err)
		}
		want[name] = ref
	}

	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				name := names[(g+i)%len(names)]
				got, err := ops[name]()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d %s: %w", g, i, name, err)
					return
				}
				if !bytes.Equal(got, want[name]) {
					errs <- fmt.Errorf("goroutine %d iter %d %s: wire bytes differ from serial reference", g, i, name)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerConcurrentWithKeyFreeOps mixes the key-free tier (Add, Sub,
// MulConst, Rescale, expansion of seeded uploads) into the same hammer —
// the serve layer's worker pool interleaves both tiers on one Server.
func TestServerConcurrentWithKeyFreeOps(t *testing.T) {
	owner, enc, srv := threeParties(t, Test, 0xFACE, 0xF00D)
	defer owner.Close()
	defer enc.Close()
	defer srv.Close()

	msgs := testMsgs(enc.Slots(), 2)
	cts, err := enc.EncodeEncryptBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cts[0], cts[1]
	seeded, err := owner.EncodeEncryptCompressed(msgs[0])
	if err != nil {
		t.Fatal(err)
	}

	ops := []func() error{
		func() error { _, err := srv.Add(a, b); return err },
		func() error { _, err := srv.Sub(a, b); return err },
		func() error { _, err := srv.MulConst(a, 1.5); return err },
		func() error { _, err := srv.Rescale(b); return err },
		func() error { _, err := srv.DropLevel(a, 2); return err },
		func() error { _, err := srv.ExpandCompressedUpload(seeded); return err },
	}
	var wg sync.WaitGroup
	errs := make(chan error, 48)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := ops[(g+i)%len(ops)](); err != nil {
					errs <- fmt.Errorf("goroutine %d op %d: %w", g, i, err)
					return
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

// TestServerConcurrentFirstCoeffsToSlots: a HomomorphicDFT encodes its
// diagonals on first use, and internal/evalop shares one DFT across
// concurrent requests, so the first application can come from many
// goroutines at once. Eight callers on one freshly built DFT must each
// return the bytes of a sequential run on another fresh DFT.
func TestServerConcurrentFirstCoeffsToSlots(t *testing.T) {
	owner, enc, srv := threeParties(t, Test, 0xF125, 0x7D5)
	defer owner.Close()
	defer enc.Close()
	defer srv.Close()
	cfg := HomomorphicDFTConfig{StartLevel: srv.MaxLevel(), Levels: 1}
	newDFT := func() *HomomorphicDFT {
		t.Helper()
		dft, err := srv.NewHomomorphicDFT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dft
	}
	seq := newDFT()
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{Rotations: seq.Rotations(), Conjugate: true})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := srv.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enc.EncodeEncrypt(testMsgs(enc.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	c2s := func(dft *HomomorphicDFT) ([]byte, error) {
		re, im, err := srv.CoeffsToSlots(ct, dft, evk)
		if err != nil {
			return nil, err
		}
		reBlob, err := srv.SerializeCiphertext(re)
		if err != nil {
			return nil, err
		}
		imBlob, err := srv.SerializeCiphertext(im)
		return append(reBlob, imBlob...), err
	}
	want, err := c2s(seq)
	if err != nil {
		t.Fatal(err)
	}

	shared := newDFT()
	const callers = 8
	got := make([][]byte, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c2s(shared)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("caller %d: CoeffsToSlots bytes differ from the sequential run", i)
		}
	}
}
