package abcfhe

// Tests for the encrypted-compute server surface (PR 4): the three-party
// integration where the server genuinely computes (ct×ct multiply, slot
// rotations, inner sums — all reached through exported evaluation-key
// bytes), the misuse matrix of the key-gated operations, worker-count
// determinism of the key-switch hot paths, and their allocation budgets.

import (
	"bytes"
	"errors"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// dotSpan is the vector width the integration tests reduce over.
const dotSpan = 4

// evalParties builds the three parties plus an imported evaluation-key
// set deep enough for one Mul + Rescale(s) + InnerSum(dotSpan).
func evalParties(t testing.TB, preset Preset, opts ...Option) (*KeyOwner, *Encryptor, *Server, *EvaluationKeys) {
	t.Helper()
	owner, device, server := threeParties(t, preset, 0xE7A1, 0xE7A2, opts...)
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		MaxLevel:  4,
		Rotations: InnerSumRotations(dotSpan),
		Conjugate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	return owner, device, server, evk
}

// rescalesAfterMul is the number of Rescale steps that bring a product's
// scale back near Δ: the double-scale presets (Δ = 2^66 over 36-bit limbs)
// consume two limbs per multiplication, the Test preset (Δ = 2^30) one.
func rescalesAfterMul(preset Preset) int {
	spec, _ := preset.spec()
	if spec.LogScale > spec.LimbBits {
		return 2
	}
	return 1
}

// TestThreePartyEncryptedDot is the PR 4 headline: the KeyOwner exports
// public and evaluation keys as bytes; a device encrypts two vectors; the
// keyless Server — holding nothing but those bytes — computes their
// slot-wise product with Mul, consumes the scale with Rescale, and
// reduces with the rotation-based InnerSum; the KeyOwner decrypts the
// replied bytes and finds the dot products, within a per-preset
// worst-slot precision floor.
//
// Floors: the double-scale presets keep ≥ 30 bits through the whole
// pipeline. The Test preset's Δ = 2^30 leaves only 2^24 of scale after
// the single rescale (the 36-bit limb overshoots Δ²), capping its
// precision near 14 bits — same structural floor the key round-trip test
// uses for it.
func TestThreePartyEncryptedDot(t *testing.T) {
	floors := map[Preset]float64{Test: 12, PN15: 30}
	for _, preset := range []Preset{Test, PN15} {
		t.Run(string(preset), func(t *testing.T) {
			spec, _ := preset.spec()
			if testing.Short() && spec.LogN >= 14 {
				t.Skipf("skipping logN=%d in -short mode", spec.LogN)
			}

			// Machine 1: the key owner. Two byte blobs leave it.
			owner, err := NewKeyOwner(preset, 0xD07, 0x5CA1A2)
			if err != nil {
				t.Fatal(err)
			}
			pkBytes, err := owner.ExportPublicKey()
			if err != nil {
				t.Fatal(err)
			}
			evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
				MaxLevel:  4,
				Rotations: InnerSumRotations(dotSpan),
			})
			if err != nil {
				t.Fatal(err)
			}

			// Machine 2: a fleet device encrypts the two vectors.
			device, err := NewEncryptor(pkBytes, 0xFEE1, 0x600D)
			if err != nil {
				t.Fatal(err)
			}
			msgs := testMsgs(device.Slots(), 2)
			x, y := msgs[0], msgs[1]
			ctX, err := device.EncodeEncrypt(x)
			if err != nil {
				t.Fatal(err)
			}
			ctY, err := device.EncodeEncrypt(y)
			if err != nil {
				t.Fatal(err)
			}
			uploadX, _ := device.SerializeCiphertext(ctX)
			uploadY, _ := device.SerializeCiphertext(ctY)

			// Machine 3: the server bootstraps from the evaluation-key
			// blob alone and computes on the ciphertext bytes.
			server, evk, err := NewServerFromEvaluationKeys(evkBytes)
			if err != nil {
				t.Fatal(err)
			}
			a, err := server.DeserializeCiphertext(uploadX)
			if err != nil {
				t.Fatal(err)
			}
			b, err := server.DeserializeCiphertext(uploadY)
			if err != nil {
				t.Fatal(err)
			}
			a, err = server.DropLevel(a, evk.MaxLevel())
			if err != nil {
				t.Fatal(err)
			}
			b, err = server.DropLevel(b, evk.MaxLevel())
			if err != nil {
				t.Fatal(err)
			}
			prod, err := server.Mul(a, b, evk)
			if err != nil {
				t.Fatal(err)
			}
			// Rotate first, rescale last: key-switch noise is additive at
			// the current scale, so spend it while the scale is still Δ².
			sum, err := server.InnerSum(prod, dotSpan, evk)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rescalesAfterMul(preset); i++ {
				if sum, err = server.Rescale(sum); err != nil {
					t.Fatal(err)
				}
			}
			reply, err := server.SerializeCiphertext(sum)
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

			// Slot j must hold Σ_{m<dotSpan} x[j+m]·y[j+m] (cyclic).
			slots := owner.Slots()
			want := make([]complex128, slots)
			for j := 0; j < slots; j++ {
				for m := 0; m < dotSpan; m++ {
					want[j] += x[(j+m)%slots] * y[(j+m)%slots]
				}
			}
			stats := ckks.MeasurePrecision(want, got)
			t.Logf("worst-slot precision %.2f bits (mean %.2f)", stats.WorstBits, stats.MeanBits)
			if stats.WorstBits < floors[preset] {
				t.Fatalf("worst-slot precision %.2f bits below floor %.0f", stats.WorstBits, floors[preset])
			}

			// No shared in-memory state between the parties.
			if owner.params == server.params || owner.params == device.params {
				t.Fatal("parties share a Parameters instance")
			}
		})
	}
}

// TestEvalKeyExportCanonical: re-export with the same config is
// byte-identical (keys derive deterministically from the owner seed), and
// the imported set reports its geometry.
func TestEvalKeyExportCanonical(t *testing.T) {
	owner, _, server := threeParties(t, Test, 0xCA, 0xFE)
	cfg := EvalKeyConfig{MaxLevel: 3, Rotations: []int{4, 1, 2, 2}, Conjugate: true}
	a, err := owner.ExportEvaluationKeys(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := owner.ExportEvaluationKeys(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("evaluation-key export is not deterministic")
	}
	evk, err := server.ImportEvaluationKeys(a)
	if err != nil {
		t.Fatal(err)
	}
	if evk.MaxLevel() != 3 || !evk.HasConjugate() {
		t.Fatal("geometry lost on import")
	}
	steps := evk.RotationSteps()
	if len(steps) != 3 || steps[0] != 1 || steps[1] != 2 || steps[2] != 4 {
		t.Fatalf("rotation steps %v", steps)
	}
}

// TestRotateAndConjugate: rotations through the public surface move slots
// in the documented direction; conjugation conjugates.
func TestRotateAndConjugate(t *testing.T) {
	owner, device, server, evk := evalParties(t, Test)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(ct, evk.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}

	rot, err := server.Rotate(low, 2, evk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(rot)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance matches the scheme-layer rotation tests: key-switch noise
	// at the Test preset's Δ = 2^30 sits a few bits under 5e-2.
	slots := owner.Slots()
	for j := range got {
		if cmplx.Abs(got[j]-msg[(j+2)%slots]) > 5e-2 {
			t.Fatalf("slot %d not rotated by 2", j)
		}
	}

	// Rotation by 0 is the identity (no key needed, no noise added).
	id, err := server.Rotate(low, 0, evk)
	if err != nil {
		t.Fatal(err)
	}
	idGot, err := owner.DecryptDecode(id)
	if err != nil {
		t.Fatal(err)
	}
	for j := range idGot {
		if cmplx.Abs(idGot[j]-msg[j]) > 1e-3 {
			t.Fatalf("slot %d changed under identity rotation", j)
		}
	}

	conj, err := server.Conjugate(low, evk)
	if err != nil {
		t.Fatal(err)
	}
	cGot, err := owner.DecryptDecode(conj)
	if err != nil {
		t.Fatal(err)
	}
	// Presence check only: the precision floors are pinned elsewhere.
	for j := range cGot {
		if cmplx.Abs(cGot[j]-cmplx.Conj(msg[j])) > 0.1 {
			t.Fatalf("slot %d not conjugated", j)
		}
	}
}

// TestRotateManyMatchesRotate: the hoisted multi-rotation returns
// byte-identical ciphertexts to one-at-a-time Rotate (including the
// zero-step copy).
func TestRotateManyMatchesRotate(t *testing.T) {
	_, device, server, evk := evalParties(t, Test)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(ct, evk.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}

	steps := []int{1, 0, 2}
	many, err := server.RotateMany(low, steps, evk)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range steps {
		one, err := server.Rotate(low, k, evk)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := server.SerializeCiphertext(many[i])
		b, _ := server.SerializeCiphertext(one)
		if !bytes.Equal(a, b) {
			t.Fatalf("step %d: hoisted result differs from sequential", k)
		}
	}
}

// TestDotPlain: the plaintext-weight linear layer against the clear-text
// reference.
func TestDotPlain(t *testing.T) {
	owner, device, server, evk := evalParties(t, Test)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(ct, evk.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}

	weights := []complex128{0.5, -0.25, 0.125, 1}[:3] // non-power-of-two on purpose
	out, err := server.DotPlain(low, weights, evk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(out)
	if err != nil {
		t.Fatal(err)
	}
	var want complex128
	for j, w := range weights {
		want += w * msg[j]
	}
	if e := cmplx.Abs(got[0] - want); e > 1e-3 {
		t.Fatalf("slot 0: got %v want %v (err %g)", got[0], want, e)
	}
}

// TestEvalMisuseMatrix walks the acceptance list for the key-gated
// surface: every misuse returns a typed sentinel error, never panics.
func TestEvalMisuseMatrix(t *testing.T) {
	owner, device, server, evk := evalParties(t, Test)
	msg := testMsgs(device.Slots(), 1)[0]
	full, err := device.EncodeEncrypt(msg) // full depth > evk.MaxLevel()
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(full, evk.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}

	// Nil key set.
	if _, err := server.Mul(low, low, nil); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("Mul without keys: %v", err)
	}
	if _, err := server.Rotate(low, 1, nil); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("Rotate without keys: %v", err)
	}
	// Rotation by an ungenerated step.
	if _, err := server.Rotate(low, 3, evk); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("ungenerated step: %v", err)
	}
	if _, err := server.RotateMany(low, []int{1, 3}, evk); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("RotateMany ungenerated step: %v", err)
	}
	// A depth-capped set (MaxLevel 2, no conjugation key) for the
	// depth-gating and missing-conjugation cases.
	noConj, err := owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: 2, Rotations: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	evkNoConj, err := server.ImportEvaluationKeys(noConj)
	if err != nil {
		t.Fatal(err)
	}
	// Depth beyond the exported keys (low is at level 4 > MaxLevel 2).
	if _, err := server.Mul(low, low, evkNoConj); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("Mul above key depth: %v", err)
	}
	if _, err := server.Rotate(low, 1, evkNoConj); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("Rotate above key depth: %v", err)
	}
	lvl2, err := server.DropLevel(low, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Conjugate(lvl2, evkNoConj); !errors.Is(err, ErrEvaluationKeyMissing) {
		t.Errorf("Conjugate without key: %v", err)
	}
	// InnerSum span misuse.
	for _, span := range []int{0, -4, 3, server.Slots() * 2} {
		if _, err := server.InnerSum(low, span, evk); !errors.Is(err, ErrInvalidSpan) {
			t.Errorf("InnerSum span %d: %v", span, err)
		}
	}
	// DotPlain misuse: empty and oversized weights, level-1 input.
	if _, err := server.DotPlain(low, nil, evk); !errors.Is(err, ErrInvalidSpan) {
		t.Errorf("DotPlain empty weights: %v", err)
	}
	if _, err := server.DotPlain(low, make([]complex128, server.Slots()+1), evk); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("DotPlain long weights: %v", err)
	}
	lvl1, err := server.DropLevel(low, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.DotPlain(lvl1, []complex128{1}, evk); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("DotPlain at level 1: %v", err)
	}
	// Level-mismatched Mul operands.
	if _, err := server.Mul(low, lvl2, evk); !errors.Is(err, ErrLevelMismatch) {
		t.Errorf("Mul level mismatch: %v", err)
	}
}

// TestEvalKeyBlobMisuse: hostile evaluation-key bytes — wrong preset,
// a flipped layout byte, the retired coefficient-domain layout (layout
// byte 0), the retired full-row layout (layout byte 1, no mask seed),
// truncation, bit flips, wrong kind, a gadget tag other than hybrid — all
// return ErrMalformedWire from both import paths.
// The retired digit-gadget tag (0) is additionally ErrGadgetUnsupported,
// as is an export over a parameter set without special primes.
func TestEvalKeyBlobMisuse(t *testing.T) {
	owner, _, server := threeParties(t, Test, 0xBAD, 0xE44)
	good, err := owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: 2, Rotations: []int{1}})
	if err != nil {
		t.Fatal(err)
	}

	// From a different preset (PN13) against a Test-preset server.
	otherOwner, err := NewKeyOwner(PN13, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := otherOwner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}

	imported, err := server.ImportEvaluationKeys(good)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(i int) []byte {
		d := append([]byte(nil), good...)
		d[i] ^= 0xFF
		return d
	}
	gadgetTag := func(tag byte) []byte {
		d := append([]byte(nil), good...)
		d[14] = tag // first sub-header byte, after the 14-byte key header
		return d
	}
	cases := map[string][]byte{
		"retired gadget":   gadgetTag(0),
		"unknown gadget":   gadgetTag(2),
		"empty":            nil,
		"garbage":          []byte("ABCF with nothing useful behind it"),
		"different preset": otherBlob,
		"layout flip":      flip(14 + 4), // layout byte in the sub-header
		// Every blob exported before keys travelled in the NTT domain.
		"retired domain": retiredLayout(server.params, imported.set, good, 0),
		// Every blob exported before the masks moved to the seed.
		"retired full-row": retiredLayout(server.params, imported.set, good, 1),
		"truncated":        good[:len(good)/2],
		"padded":           append(append([]byte(nil), good...), 0),
		"public key blob":  func() []byte { d, _ := owner.ExportPublicKey(); return d }(),
		"bit flip payload": flip(len(good) - 7),
	}
	for name, data := range cases {
		if _, err := server.ImportEvaluationKeys(data); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("ImportEvaluationKeys(%s): %v", name, err)
		}
	}
	// The bootstrap constructor applies the same gates (a different-preset
	// blob is fine there — it builds its own params — so only structural
	// damage applies).
	for _, name := range []string{"empty", "garbage", "layout flip", "retired domain", "retired full-row", "truncated", "padded", "retired gadget", "unknown gadget"} {
		if _, _, err := NewServerFromEvaluationKeys(cases[name]); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("NewServerFromEvaluationKeys(%s): %v", name, err)
		}
	}
	// Old exports are told what they are and what to do about them, on
	// both import paths.
	for name, want := range map[string]string{
		"retired domain":   "retired coefficient-domain layout; re-export",
		"retired full-row": "retired full-row layout; re-export",
	} {
		if _, err := server.ImportEvaluationKeys(cases[name]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ImportEvaluationKeys(%s): %v", name, err)
		}
		if _, _, err := NewServerFromEvaluationKeys(cases[name]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewServerFromEvaluationKeys(%s): %v", name, err)
		}
	}

	// The retired tag is named as such, from the header alone: the same
	// verdict with the payload cut off.
	retired := cases["retired gadget"]
	for name, data := range map[string][]byte{"full blob": retired, "header only": retired[:14+5+16+2+4]} {
		if _, err := server.ImportEvaluationKeys(data); !errors.Is(err, ErrGadgetUnsupported) {
			t.Errorf("ImportEvaluationKeys(retired gadget, %s): %v", name, err)
		}
		if _, _, err := NewServerFromEvaluationKeys(data); !errors.Is(err, ErrGadgetUnsupported) {
			t.Errorf("NewServerFromEvaluationKeys(retired gadget, %s): %v", name, err)
		}
	}
	if _, err := server.ImportEvaluationKeys(cases["truncated"]); errors.Is(err, ErrGadgetUnsupported) {
		t.Errorf("a merely truncated blob was reported as a gadget mismatch: %v", err)
	}

	// Export side: an owner over a spec without special primes (only
	// reachable through a hand-built secret-key blob) cannot host the keys.
	bare := ckks.TestParams
	bare.SpecialLimbs = 0
	params := bare.MustBuild()
	seed := prng.SeedFromUint64s(0xBAD, 0xE44)
	skBlob, err := params.MarshalSecretKey(ckks.NewKeyGenerator(params, seed).GenSecretKey(), seed)
	if err != nil {
		t.Fatal(err)
	}
	bareOwner, err := NewKeyOwnerFromSecretKey(skBlob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bareOwner.ExportEvaluationKeys(EvalKeyConfig{}); !errors.Is(err, ErrGadgetUnsupported) {
		t.Errorf("ExportEvaluationKeys without special primes: %v", err)
	}
}

// TestEvalWorkerDeterminism: the key-switch hot paths (Mul, Rotate,
// InnerSum) emit byte-identical ciphertexts at any worker count — the
// same lane-determinism contract encrypt/decode honor.
func TestEvalWorkerDeterminism(t *testing.T) {
	var refs [][]byte
	for _, w := range []int{1, 2, 8} {
		owner, device, server, evk := evalParties(t, Test, WithWorkers(w))
		msgs := testMsgs(device.Slots(), 2)
		ctX, err := device.EncodeEncrypt(msgs[0])
		if err != nil {
			t.Fatal(err)
		}
		ctY, err := device.EncodeEncrypt(msgs[1])
		if err != nil {
			t.Fatal(err)
		}
		a, _ := server.DropLevel(ctX, evk.MaxLevel())
		b, _ := server.DropLevel(ctY, evk.MaxLevel())
		prod, err := server.Mul(a, b, evk)
		if err != nil {
			t.Fatal(err)
		}
		prod, err = server.Rescale(prod)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := server.InnerSum(prod, dotSpan, evk)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := server.Rotate(a, 1, evk)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, ct := range []*Ciphertext{prod, sum, rot} {
			data, err := server.SerializeCiphertext(ct)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
		}
		refs = append(refs, buf.Bytes())
		owner.Close()
		device.Close()
		server.Close()
	}
	if !bytes.Equal(refs[0], refs[1]) || !bytes.Equal(refs[0], refs[2]) {
		t.Fatal("key-switch outputs differ across worker counts")
	}
}
