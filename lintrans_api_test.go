package abcfhe

// Public-surface tests of the homomorphic linear-transform stack: BSGS
// mat×vec pinned against the plaintext reference at every preset, the
// key-owner/server rotation-set contract, backend×worker byte-identity of
// the BSGS path, the misuse matrix, and the PN15 CoeffsToSlots →
// SlotsToCoeffs round trip with its pinned worst-slot precision floor.

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/lanes"
)

// ltPlainReference is the plaintext mat×vec oracle: apply the diagonals
// directly (aliased indices accumulate, short vectors zero-pad).
func ltPlainReference(slots int, diags map[int][]complex128, v []complex128) []complex128 {
	full := make([]complex128, slots)
	copy(full, v)
	out := make([]complex128, slots)
	for d, diag := range diags {
		d = ((d % slots) + slots) % slots
		for r, w := range diag {
			out[r] += w * full[(r+d)%slots]
		}
	}
	return out
}

func worstSlotErr(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestLinearTransformEveryPreset: random sparse and banded matrices must
// evaluate to the plaintext reference at every shipped preset, with the
// key owner deriving the exact rotation set from the sparsity pattern
// alone (LinearTransformRotations) — never seeing the matrix entries.
func TestLinearTransformEveryPreset(t *testing.T) {
	for _, preset := range Presets() {
		preset := preset
		t.Run(string(preset), func(t *testing.T) {
			spec, err := preset.spec()
			if err != nil {
				t.Fatal(err)
			}
			if testing.Short() && spec.LogN >= 14 {
				t.Skip("paper-scale preset")
			}
			owner, device, server := threeParties(t, preset, 0x17A0, 0x17B0)
			defer owner.Close()
			defer device.Close()
			defer server.Close()
			slots := server.Slots()

			// Sparse band plus far-flung diagonals, random entries.
			idx := []int{0, 1, 2, 3, 7, slots / 2, slots - 1}
			rng := rand.New(rand.NewSource(int64(spec.LogN)))
			diags := map[int][]complex128{}
			for _, d := range idx {
				v := make([]complex128, slots)
				for r := range v {
					v[r] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
				}
				diags[d] = v
			}

			// 2·rescales: the pre-rescale product at Δ·Δpt must fit under
			// Q_level — double-scale presets (2^138) need level ≥ 4.
			level := 2 * rescalesAfterMul(preset)
			lt, err := server.NewLinearTransform(diags, level, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The owner-side ladder must match what the transform requests.
			ownerSteps := LinearTransformRotations(slots, idx, 0)
			if got := lt.Rotations(); len(got) != len(ownerSteps) {
				t.Fatalf("rotation sets disagree: owner %v, transform %v", ownerSteps, got)
			} else {
				for i := range got {
					if got[i] != ownerSteps[i] {
						t.Fatalf("rotation sets disagree: owner %v, transform %v", ownerSteps, got)
					}
				}
			}
			evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
				MaxLevel:  level,
				Rotations: ownerSteps,
			})
			if err != nil {
				t.Fatal(err)
			}
			evk, err := server.ImportEvaluationKeys(evkBytes)
			if err != nil {
				t.Fatal(err)
			}

			msg := testMsgs(slots, 1)[0]
			ct, err := device.EncodeEncrypt(msg)
			if err != nil {
				t.Fatal(err)
			}
			// Fresh ciphertexts sit at full depth; LinearTransform drops to
			// the transform's level internally.
			out, err := server.LinearTransform(ct, lt, evk)
			if err != nil {
				t.Fatal(err)
			}
			if out.Level != level-lt.Depth() {
				t.Fatalf("output level %d, want %d", out.Level, level-lt.Depth())
			}
			got, err := owner.DecryptDecode(out)
			if err != nil {
				t.Fatal(err)
			}
			want := ltPlainReference(slots, diags, msg)
			tol := 1e-4 // double-scale presets keep ≥ 30 bits
			if preset == Test {
				tol = 5e-2 // Δ = 2^30: rescale noise dominates
			}
			if e := worstSlotErr(want, got); e > tol {
				t.Fatalf("transform error %g (budget %g)", e, tol)
			}
		})
	}
}

// TestLinearTransformMisuse: the typed-error matrix of the new surface.
func TestLinearTransformMisuse(t *testing.T) {
	owner, device, server := threeParties(t, Test, 0x17A2, 0x17B2)
	defer owner.Close()
	defer device.Close()
	defer server.Close()
	slots := server.Slots()
	ones := make([]complex128, slots)
	for i := range ones {
		ones[i] = 1
	}

	if _, err := server.NewLinearTransform(map[int][]complex128{0: ones}, 1, 0); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("level too shallow for the rescales: %v", err)
	}
	if _, err := server.NewLinearTransform(map[int][]complex128{0: ones}, 99, 0); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("level above chain: %v", err)
	}
	if _, err := server.NewLinearTransform(map[int][]complex128{0: ones}, 3, 3); !errors.Is(err, ErrInvalidSpan) {
		t.Errorf("non-power-of-two block size: %v", err)
	}
	if _, err := server.NewLinearTransform(map[int][]complex128{0: make([]complex128, slots)}, 3, 0); !errors.Is(err, ErrInvalidSpan) {
		t.Errorf("all-zero transform: %v", err)
	}
	if _, err := server.NewLinearTransform(map[int][]complex128{0: make([]complex128, slots+1)}, 3, 0); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("diagonal longer than slots: %v", err)
	}
	bad := append([]complex128(nil), ones...)
	bad[7] = complex(math.NaN(), 0)
	if _, err := server.NewLinearTransform(map[int][]complex128{0: bad}, 3, 0); !errors.Is(err, ErrInvalidConstant) {
		t.Errorf("NaN diagonal entry: %v", err)
	}

	lt, err := server.NewLinearTransform(map[int][]complex128{1: ones}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMsgs(slots, 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.LinearTransform(ct, lt, nil); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("nil key set: %v", err)
	}
	// A set without the needed step errors before any compute.
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{Rotations: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.LinearTransform(ct, lt, evk); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("missing rotation step: %v", err)
	}
	// Input below the transform's level cannot be lifted.
	low, err := server.DropLevel(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.LinearTransform(low, lt, evk); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("input below transform level: %v", err)
	}

	// DFT config validation.
	if _, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: 4, Levels: 0}); !errors.Is(err, ErrInvalidSpan) {
		t.Errorf("zero DFT levels: %v", err)
	}
	if _, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: 2, Levels: 1}); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("start level too shallow: %v", err)
	}
	dft, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	// CoeffsToSlots without the conjugation key must error up front.
	evkSteps, err := owner.ExportEvaluationKeys(EvalKeyConfig{Rotations: dft.Rotations()})
	if err != nil {
		t.Fatal(err)
	}
	evkNoConj, err := server.ImportEvaluationKeys(evkSteps)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := server.CoeffsToSlots(ct, dft, evkNoConj); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("missing conjugation key: %v", err)
	}
}

// ltBackendRun drives the BSGS and homomorphic-DFT paths under one
// (backend, workers) configuration and returns every result's bytes.
func ltBackendRun(t *testing.T, backend lanes.Backend, workers int) map[string][]byte {
	t.Helper()
	opts := []Option{WithWorkers(workers), withKernels(backend)}
	owner, device, server := threeParties(t, Test, 0xB565, 0xB566, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()
	slots := server.Slots()

	rng := rand.New(rand.NewSource(99))
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11} {
		v := make([]complex128, slots)
		for r := range v {
			v[r] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		diags[d] = v
	}
	lt, err := server.NewLinearTransform(diags, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	dft, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	steps := append(lt.Rotations(), dft.Rotations()...)
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		Rotations: steps,
		Conjugate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}

	msg := testMsgs(slots, 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{}
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

	ltOut, err := server.LinearTransform(ct, lt, evk)
	record("bsgs", ltOut, err)
	re, im, err := server.CoeffsToSlots(ct, dft, evk)
	record("c2s-re", re, err)
	record("c2s-im", im, nil)
	back, err := server.SlotsToCoeffs(re, im, dft, evk)
	record("s2c", back, err)
	return out
}

// TestLinearTransformBackendWorkerInvariance mirrors
// TestBackendWorkerInvariance for the BSGS/DFT paths: portable/fast ×
// worker counts 1, 2, 8 must all produce the portable single-worker
// reference's bytes.
func TestLinearTransformBackendWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 6 full transform pipelines")
	}
	ref := ltBackendRun(t, lanes.Portable, 1)
	for _, backend := range []lanes.Backend{lanes.Portable, lanes.Fast} {
		for _, workers := range []int{1, 2, 8} {
			if backend == lanes.Portable && workers == 1 {
				continue
			}
			got := ltBackendRun(t, backend, workers)
			for name, want := range ref {
				if !bytes.Equal(got[name], want) {
					t.Fatalf("%s: bytes diverge under backend=%s workers=%d", name, backend.Name(), workers)
				}
			}
		}
	}
}

// pn15DFTKeys exports the PN15 homomorphic-DFT key set (depth startLevel,
// the `levels`-group rotation ladder, conjugation) from the owner seeded
// (seedLo, seedHi) and imports it once. Key material is independent of
// backend and worker count, so both legs of a PN15 round trip evaluate
// against this one decoded set: a second export+import would put a
// second multi-GB generated set, blob and decoded set through the heap,
// which is what used to OOM the suite. The blob is unreachable once this
// returns; the collection here keeps it from overlapping the first leg.
func pn15DFTKeys(t *testing.T, seedLo, seedHi uint64, startLevel, levels int) *EvaluationKeys {
	t.Helper()
	owner, err := NewKeyOwner(PN15, seedLo, seedHi)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	server, err := NewServer(PN15)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		MaxLevel:  startLevel,
		Rotations: HomomorphicDFTRotations(owner.Slots(), levels),
		Conjugate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // the generated set is garbage; don't let it overlap the decode
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	evkBytes = nil
	runtime.GC()
	return evk
}

const pn15DFTStartLevel, pn15DFTLevels = 10, 2

// pn15DFTRun executes the PN15 homomorphic-DFT round trip under one
// (backend, workers) configuration: encrypt, CoeffsToSlots, check the
// coefficient extraction against the plaintext IFFT, SlotsToCoeffs,
// return the three result blobs and the round-trip worst-slot error.
func pn15DFTRun(t *testing.T, backend lanes.Backend, workers int, evk *EvaluationKeys) (blobs map[string][]byte, roundTripErr float64) {
	t.Helper()
	opts := []Option{WithWorkers(workers), withKernels(backend)}
	owner, device, server := threeParties(t, PN15, 0x9F15, 0x9F16, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()
	slots := server.Slots()

	dft, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: pn15DFTStartLevel, Levels: pn15DFTLevels})
	if err != nil {
		t.Fatal(err)
	}

	msg := testMsgs(slots, 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	re, im, err := server.CoeffsToSlots(ct, dft, evk)
	if err != nil {
		t.Fatal(err)
	}
	back, err := server.SlotsToCoeffs(re, im, dft, evk)
	if err != nil {
		t.Fatal(err)
	}

	blobs = map[string][]byte{}
	for name, c := range map[string]*Ciphertext{"re": re, "im": im, "back": back} {
		b, err := server.SerializeCiphertext(c)
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = b
	}

	got, err := owner.DecryptDecode(back)
	if err != nil {
		t.Fatal(err)
	}
	return blobs, worstSlotErr(msg, got)
}

// TestPN15HomomorphicDFTRoundTrip is the CI gate of the tentpole: at the
// paper-scale PN15 preset, CoeffsToSlots → SlotsToCoeffs must restore the
// message with at least pn15DFTFloorBits bits of worst-slot precision,
// and the whole pipeline must be byte-identical across backends and
// worker counts (portable/1 vs fast/8).
func TestPN15HomomorphicDFTRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale preset round trip")
	}
	// Pinned floor: measured 42.5 bits on the reference run; regressions
	// in the transform scheduling, the DFT factorization, or the
	// key-switch noise path all show up here first.
	const pn15DFTFloorBits = 38.0

	evk := pn15DFTKeys(t, 0x9F15, 0x9F16, pn15DFTStartLevel, pn15DFTLevels)
	ref, errPortable := pn15DFTRun(t, lanes.Portable, 1, evk)
	bits := -math.Log2(errPortable)
	t.Logf("PN15 C2S→S2C worst-slot error %.3g (%.1f bits)", errPortable, bits)
	if bits < pn15DFTFloorBits {
		t.Fatalf("round-trip precision %.1f bits, floor %g", bits, pn15DFTFloorBits)
	}

	runtime.GC() // the portable leg's tables and transforms go before the fast leg's arrive
	got, errFast := pn15DFTRun(t, lanes.Fast, 8, evk)
	if errFast != errPortable {
		t.Fatalf("round-trip error differs across backends: %g vs %g", errFast, errPortable)
	}
	for name, want := range ref {
		if !bytes.Equal(got[name], want) {
			t.Fatalf("%s: bytes diverge between portable/1 and fast/8", name)
		}
	}
}
