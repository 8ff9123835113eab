package abcfhe

// Public-surface tests of the polynomial-evaluation stack: BSGS Chebyshev
// evaluation pinned against the plaintext Horner oracle at every preset,
// the misuse matrix of the new entry points, backend×worker
// byte-identity, and the PN15 EvalMod-after-CoeffsToSlots round trip with
// its pinned worst-slot precision floor (the fftfp degree-15 sine
// surrogate as the oracle).

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fftfp"
	"repro/internal/lanes"
)

// polyHornerRef is the plaintext oracle: Σ coeffs[i]·zⁱ per slot.
func polyHornerRef(coeffs []complex128, msg []complex128) []complex128 {
	out := make([]complex128, len(msg))
	for i, z := range msg {
		acc := complex(0, 0)
		for k := len(coeffs) - 1; k >= 0; k-- {
			acc = acc*z + coeffs[k]
		}
		out[i] = acc
	}
	return out
}

// realMsg fills every slot with a real value inside [lo, hi] — the
// interval contract EvalPoly's precision is specified over.
func realMsg(slots int, lo, hi float64, rng *rand.Rand) []complex128 {
	msg := make([]complex128, slots)
	for i := range msg {
		msg[i] = complex(lo+(hi-lo)*rng.Float64(), 0)
	}
	return msg
}

func randCoeffs(deg int, rng *rand.Rand) []complex128 {
	coeffs := make([]complex128, deg+1)
	for i := range coeffs {
		coeffs[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	if coeffs[deg] == 0 {
		coeffs[deg] = 1
	}
	return coeffs
}

// evalPolyDegrees returns the degrees a preset's depth admits (the g = 2
// floor is 2·(⌈log2 d⌉+2)+3 limbs on the double-scale presets: 1 fits in
// 7, 3 in 9, 7 in 11, 15 in 13; the Test preset's 4 limbs admit degree 1).
func evalPolyDegrees(server *Server) []int {
	var degs []int
	for _, d := range []int{1, 3, 7, 15} {
		if server.EvalPolyMinLevel(d) <= server.MaxLevel() {
			degs = append(degs, d)
		}
	}
	return degs
}

// TestEvalPolyEveryPreset: random coefficient vectors at every feasible
// degree on all shipped presets must match the plaintext Horner oracle
// within a per-preset worst-slot floor.
func TestEvalPolyEveryPreset(t *testing.T) {
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
			owner, device, server := threeParties(t, preset, 0xE9A0, 0xEA57)
			defer owner.Close()
			defer device.Close()
			defer server.Close()

			rng := rand.New(rand.NewSource(int64(spec.LogN)))
			lo, hi := -1.0, 1.0
			msg := realMsg(server.Slots(), lo, hi, rng)
			ct, err := device.EncodeEncrypt(msg)
			if err != nil {
				t.Fatal(err)
			}

			// Δ = 2^30 on Test: rescale/encryption noise dominates; the
			// double-scale presets keep ≥ 30 bits through the deepest ladder.
			tol := 1e-4
			if preset == Test {
				tol = 5e-2
			}

			// One key export (keygen dominates at paper scale): the set at
			// the deepest KeyLevel in the ladder serves every degree —
			// deeper-than-needed keys are the common case.
			degs := evalPolyDegrees(server)
			plans := map[int]*PolyEval{}
			coeffsByDeg := map[int][]complex128{}
			maxKeyLevel := 0
			for _, deg := range degs {
				coeffs := randCoeffs(deg, rng)
				pe, err := server.NewPolyEval(coeffs, lo, hi, 0)
				if err != nil {
					t.Fatalf("deg %d: %v", deg, err)
				}
				plans[deg], coeffsByDeg[deg] = pe, coeffs
				if pe.KeyLevel() > maxKeyLevel {
					maxKeyLevel = pe.KeyLevel()
				}
			}
			evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: maxKeyLevel})
			if err != nil {
				t.Fatal(err)
			}
			evk, err := server.ImportEvaluationKeys(evkBytes)
			if err != nil {
				t.Fatal(err)
			}

			for _, deg := range degs {
				pe := plans[deg]
				out, err := server.EvalPoly(ct, pe, evk)
				if err != nil {
					t.Fatalf("deg %d: %v", deg, err)
				}
				if out.Level() != pe.Level()-pe.Depth() {
					t.Fatalf("deg %d: output level %d, want %d", deg, out.Level(), pe.Level()-pe.Depth())
				}
				got, err := owner.DecryptDecode(out)
				if err != nil {
					t.Fatal(err)
				}
				if e := worstSlotErr(polyHornerRef(coeffsByDeg[deg], msg), got); e > tol {
					t.Fatalf("deg %d: worst-slot error %g (budget %g)", deg, e, tol)
				}
			}
		})
	}
}

// TestEvalPolyMisuse: the typed-error matrix of the new entry points —
// every misuse returns a sentinel, never panics.
func TestEvalPolyMisuse(t *testing.T) {
	owner, device, server := threeParties(t, Test, 0xE9A2, 0xEA59)
	defer owner.Close()
	defer device.Close()
	defer server.Close()

	lin := []complex128{0.25, 0.5} // the one degree Test's 4 limbs admit

	newPolyCases := []struct {
		name   string
		coeffs []complex128
		lo, hi float64
		level  int
		want   error
	}{
		{"empty coefficients", nil, -1, 1, 0, ErrInvalidSpan},
		{"constant polynomial", []complex128{3}, -1, 1, 0, ErrInvalidSpan},
		{"constant after trimming", []complex128{3, 0, 0}, -1, 1, 0, ErrInvalidSpan},
		{"degree above cap", make([]complex128, 1026), -1, 1, 0, ErrInvalidSpan},
		{"NaN coefficient", []complex128{complex(math.NaN(), 0), 1}, -1, 1, 0, ErrInvalidConstant},
		{"Inf coefficient", []complex128{0, complex(0, math.Inf(1))}, -1, 1, 0, ErrInvalidConstant},
		{"NaN interval bound", lin, math.NaN(), 1, 0, ErrInvalidSpan},
		{"Inf interval bound", lin, -1, math.Inf(1), 0, ErrInvalidSpan},
		{"inverted interval", lin, 1, -1, 0, ErrInvalidSpan},
		{"empty interval", lin, 1, 1, 0, ErrInvalidSpan},
		{"interval too narrow", lin, 0, 1.0 / (1 << 20), 0, ErrInvalidSpan},
		{"interval bound too large", lin, -1, 1 << 21, 0, ErrInvalidSpan},
		{"degree exceeds parameter depth", []complex128{0, 0, 1}, -1, 1, 0, ErrLevelOutOfRange},
		{"level below the floor", lin, -1, 1, 3, ErrLevelOutOfRange},
		{"level above the chain", lin, -1, 1, 99, ErrLevelOutOfRange},
		{"Chebyshev coefficient blow-up", []complex128{0, 1 << 30}, -(1 << 20), 1 << 20, 0, ErrInvalidConstant},
	}
	for _, tc := range newPolyCases {
		if _, err := server.NewPolyEval(tc.coeffs, tc.lo, tc.hi, tc.level); !errors.Is(err, tc.want) {
			t.Errorf("NewPolyEval %s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// make([]complex128, 1026) trims to nothing — force a real high degree.
	huge := make([]complex128, 1026)
	huge[1025] = 1
	if _, err := server.NewPolyEval(huge, -1, 1, 0); !errors.Is(err, ErrInvalidSpan) {
		t.Errorf("NewPolyEval degree above cap: %v", err)
	}

	pe, err := server.NewPolyEval(lin, -1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMsgs(server.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: pe.KeyLevel()})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := server.EvalPoly(nil, pe, evk); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("EvalPoly nil ciphertext: %v", err)
	}
	if _, err := server.EvalPoly(ct, pe, nil); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("EvalPoly nil key set: %v", err)
	}
	// A set without the relinearization key (hand-built: every exported
	// blob carries one) errors before any compute.
	noRlk := &EvaluationKeys{set: &ckks.EvaluationKeySet{MaxLevel: server.MaxLevel()}}
	if _, err := server.EvalPoly(ct, pe, noRlk); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("EvalPoly missing relinearization key: %v", err)
	}
	// Input below the compiled level cannot be lifted.
	low, err := server.DropLevel(ct, pe.Level()-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.EvalPoly(low, pe, evk); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("EvalPoly input below plan level: %v", err)
	}
	// Keys shallower than the plan's product level.
	shallowBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: pe.KeyLevel() - 1})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := server.ImportEvaluationKeys(shallowBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.EvalPoly(ct, pe, shallow); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("EvalPoly keys too shallow: %v", err)
	}

	evalModCases := []struct {
		name string
		cfg  EvalModConfig
		want error
	}{
		{"degree above cap", EvalModConfig{Degree: 64, Range: 8}, ErrInvalidSpan},
		{"negative degree", EvalModConfig{Degree: -1, Range: 8}, ErrInvalidSpan},
		{"NaN range", EvalModConfig{Degree: 1, Range: math.NaN()}, ErrInvalidSpan},
		{"range too large", EvalModConfig{Degree: 1, Range: 1 << 21}, ErrInvalidSpan},
		{"NaN scaling", EvalModConfig{Degree: 1, Range: 8, Scaling: math.NaN()}, ErrInvalidConstant},
		{"default degree exceeds Test depth", EvalModConfig{}, ErrLevelOutOfRange},
	}
	for _, tc := range evalModCases {
		if _, err := server.NewEvalMod(tc.cfg); !errors.Is(err, tc.want) {
			t.Errorf("NewEvalMod %s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// EvalMod shares EvalPoly's apply-time checks.
	em, err := server.NewEvalMod(EvalModConfig{Degree: 1, Range: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.EvalMod(ct, em, nil); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("EvalMod nil key set: %v", err)
	}
}

// evalPolyBackendRun drives EvalPoly and EvalMod under one (backend,
// workers) configuration and returns the result bytes.
func evalPolyBackendRun(t *testing.T, backend lanes.Backend, workers int) map[string][]byte {
	t.Helper()
	opts := []Option{WithWorkers(workers), withKernels(backend)}
	owner, device, server := threeParties(t, Test, 0xB571, 0xB572, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()

	pe, err := server.NewPolyEval([]complex128{complex(0.125, -0.25), complex(0.75, 0.0625)}, -1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	em, err := server.NewEvalMod(EvalModConfig{Degree: 1, Range: 8})
	if err != nil {
		t.Fatal(err)
	}
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: pe.KeyLevel()})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := device.EncodeEncrypt(testMsgs(server.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{}
	record := func(name string, c *Ciphertext, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s (backend=%s workers=%d): %v", name, backend.Name(), workers, err)
		}
		blob, err := server.SerializeCiphertext(c)
		if err != nil {
			t.Fatalf("serialize %s: %v", name, err)
		}
		out[name] = blob
	}
	pOut, err := server.EvalPoly(ct, pe, evk)
	record("evalpoly", pOut, err)
	mOut, err := server.EvalMod(ct, em, evk)
	record("evalmod", mOut, err)
	return out
}

// TestEvalPolyBackendWorkerInvariance mirrors the other invariance suites:
// portable/fast × worker counts 1, 2, 8 must all produce the portable
// single-worker reference's bytes for evalpoly and evalmod. (The deep
// PN15 schedule's invariance is pinned by TestPN15EvalModRoundTrip.)
func TestEvalPolyBackendWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 6 full evaluation pipelines")
	}
	ref := evalPolyBackendRun(t, lanes.Portable, 1)
	for _, backend := range []lanes.Backend{lanes.Portable, lanes.Fast} {
		for _, workers := range []int{1, 2, 8} {
			if backend == lanes.Portable && workers == 1 {
				continue
			}
			got := evalPolyBackendRun(t, backend, workers)
			for name, want := range ref {
				if !bytes.Equal(got[name], want) {
					t.Fatalf("%s: bytes diverge under backend=%s workers=%d", name, backend.Name(), workers)
				}
			}
		}
	}
}

// StartLevel 19: the c2s outputs land at MidLevel 15, exactly the
// degree-15 EvalMod's preferred-schedule level.
const pn15EvalModStartLevel, pn15EvalModLevels = 19, 2

// pn15EvalModRun executes the bootstrap nonlinear stage at PN15 under one
// (backend, workers) configuration: encrypt, CoeffsToSlots, EvalMod on
// both coefficient halves, compare each against fftfp.SinSurrogate
// applied to the decrypted CoeffsToSlots outputs (so the measurement
// isolates EvalMod's own noise), and return the result blobs plus the
// worst-slot error across both halves.
func pn15EvalModRun(t *testing.T, backend lanes.Backend, workers int, evk *EvaluationKeys) (blobs map[string][]byte, worst float64) {
	t.Helper()
	opts := []Option{WithWorkers(workers), withKernels(backend)}
	owner, device, server := threeParties(t, PN15, 0x9F25, 0x9F26, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()
	slots := server.Slots()

	dft, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: pn15EvalModStartLevel, Levels: pn15EvalModLevels})
	if err != nil {
		t.Fatal(err)
	}
	em, err := server.NewEvalMod(EvalModConfig{Level: dft.MidLevel()})
	if err != nil {
		t.Fatal(err)
	}

	ct, err := device.EncodeEncrypt(testMsgs(slots, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	re, im, err := server.CoeffsToSlots(ct, dft, evk)
	if err != nil {
		t.Fatal(err)
	}

	blobs = map[string][]byte{}
	for name, half := range map[string]*Ciphertext{"re": re, "im": im} {
		out, err := server.EvalMod(half, em, evk)
		if err != nil {
			t.Fatalf("EvalMod %s half: %v", name, err)
		}
		blob, err := server.SerializeCiphertext(out)
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob

		in, err := owner.DecryptDecode(half)
		if err != nil {
			t.Fatal(err)
		}
		got, err := owner.DecryptDecode(out)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(in))
		for i, z := range in {
			want[i] = complex(
				fftfp.SinSurrogate(real(z), em.Degree(), em.Range()),
				fftfp.SinSurrogate(imag(z), em.Degree(), em.Range()))
		}
		if e := worstSlotErr(want, got); e > worst {
			worst = e
		}
	}
	return blobs, worst
}

// TestPN15EvalModRoundTrip is the CI gate of the tentpole: at the
// paper-scale PN15 preset, the degree-15 sine-surrogate EvalMod applied
// after CoeffsToSlots must track the fftfp plaintext oracle with at least
// pn15EvalModFloorBits bits of worst-slot precision, byte-identical
// across backends and worker counts (portable/1 vs fast/8).
func TestPN15EvalModRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale preset round trip")
	}
	// Acceptance floor: ≥ 20 bits. The reference run measures well above
	// it (Δ = 2^66 leaves the BSGS ladder ≈ 40 bits); regressions in the
	// schedule's scale bookkeeping or the key-switch noise path land here.
	const pn15EvalModFloorBits = 20.0

	evk := pn15DFTKeys(t, 0x9F25, 0x9F26, pn15EvalModStartLevel, pn15EvalModLevels)
	ref, errPortable := pn15EvalModRun(t, lanes.Portable, 1, evk)
	bits := -math.Log2(errPortable)
	t.Logf("PN15 C2S→EvalMod worst-slot error %.3g (%.1f bits)", errPortable, bits)
	if bits < pn15EvalModFloorBits {
		t.Fatalf("EvalMod precision %.1f bits, floor %g", bits, pn15EvalModFloorBits)
	}

	runtime.GC() // the portable leg's tables and plans go before the fast leg's arrive
	got, errFast := pn15EvalModRun(t, lanes.Fast, 8, evk)
	if errFast != errPortable {
		t.Fatalf("EvalMod error differs across backends: %g vs %g", errFast, errPortable)
	}
	for name, want := range ref {
		if !bytes.Equal(got[name], want) {
			t.Fatalf("%s half: bytes diverge between portable/1 and fast/8", name)
		}
	}
}
