// Benchmark-regression gate (the `abcbench -check` mode CI runs): execute
// the key-switch and client-pipeline benchmarks on the default (fast)
// backend, append a machine-readable report to BENCH.json, and fail when
// an allocation count or evaluation-key blob size regresses past the
// budgets committed in bench_budget.json.
//
// Wall-clock numbers are recorded but only gated *relatively*, on one
// structural claim: the BSGS linear transform must beat naive per-diagonal
// rotations. Absolute ns/op budgets would flap with CI hardware, while
// allocs/op and wire bytes are deterministic.

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fftfp"
	"repro/internal/lanes"
	"repro/internal/prng"
)

// BenchRecord is one row of a BENCH.json report.
type BenchRecord struct {
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	BlobBytes   int64   `json:"evk_blob_bytes,omitempty"`
}

// BenchReport is one gate run. BENCH.json holds an array of these —
// RunBenchCheck appends rather than overwrites, so a committed baseline
// survives CI re-runs and speedups stay comparable across PRs.
type BenchReport struct {
	GoVersion string        `json:"go_version"`
	GOARCH    string        `json:"goarch"`
	Backends  []string      `json:"backends,omitempty"`
	Records   []BenchRecord `json:"records"`
}

// budgetEntry is one committed ceiling in bench_budget.json, keyed by op.
type budgetEntry struct {
	MaxAllocsPerOp int64 `json:"max_allocs_per_op,omitempty"`
	MaxBlobBytes   int64 `json:"max_evk_blob_bytes,omitempty"`
}

func benchMsg(p *ckks.Parameters) []complex128 {
	msg := make([]complex128, p.Slots())
	src := prng.NewSource(prng.SeedFromUint64s(1, 2), 0)
	for i := range msg {
		msg[i] = complex(src.Float64()-0.5, src.Float64()-0.5)
	}
	return msg
}

func record(name string, r testing.BenchmarkResult) BenchRecord {
	return BenchRecord{
		Op:          name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// gateSeed derives the deterministic key seed the gate benchmarks use.
func gateSeed() [16]byte { return prng.SeedFromUint64s(0xB5, 0xC4) }

// loadBudgets parses a bench_budget.json file. Underscore-prefixed keys
// are free-form comments and are dropped.
func loadBudgets(path string) (map[string]budgetEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	budgets := make(map[string]budgetEntry, len(raw))
	for op, msg := range raw {
		if strings.HasPrefix(op, "_") {
			continue
		}
		var b budgetEntry
		if err := json.Unmarshal(msg, &b); err != nil {
			return nil, fmt.Errorf("parsing %s entry %q: %w", path, op, err)
		}
		budgets[op] = b
	}
	return budgets, nil
}

// budgetFailures compares a report against the committed budgets. A budget
// naming an op the gate no longer measures is itself a failure (the gate
// silently losing coverage must not pass); underscore-prefixed keys are
// comments.
func budgetFailures(report BenchReport, budgets map[string]budgetEntry) []string {
	var failures []string
	seen := map[string]bool{}
	for _, r := range report.Records {
		seen[r.Op] = true
		b, ok := budgets[r.Op]
		if !ok {
			continue
		}
		if b.MaxAllocsPerOp > 0 && r.AllocsPerOp > b.MaxAllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds budget %d",
				r.Op, r.AllocsPerOp, b.MaxAllocsPerOp))
		}
		if b.MaxBlobBytes > 0 && r.BlobBytes > b.MaxBlobBytes {
			failures = append(failures, fmt.Sprintf("%s: blob %d B exceeds budget %d",
				r.Op, r.BlobBytes, b.MaxBlobBytes))
		}
	}
	for op := range budgets {
		if !seen[op] && !strings.HasPrefix(op, "_") {
			failures = append(failures, fmt.Sprintf("budget entry %q matches no measured op", op))
		}
	}
	return failures
}

// appendReport adds report to the array document at outPath, creating the
// file when absent. A legacy single-object report (the BENCH_5.json shape)
// is lifted into a one-element array so history is kept, not clobbered.
func appendReport(outPath string, report BenchReport) error {
	var reports []BenchReport
	if data, err := os.ReadFile(outPath); err == nil {
		if jerr := json.Unmarshal(data, &reports); jerr != nil {
			var single BenchReport
			if serr := json.Unmarshal(data, &single); serr != nil {
				return fmt.Errorf("existing report %s is neither an array nor a single report: %v", outPath, jerr)
			}
			reports = []BenchReport{single}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	reports = append(reports, report)
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// lastReport returns the most recent report already recorded at outPath,
// if any — the baseline the delta table compares the fresh run against.
// The legacy single-object shape is accepted the same way appendReport
// accepts it.
func lastReport(outPath string) (BenchReport, bool) {
	data, err := os.ReadFile(outPath)
	if err != nil {
		return BenchReport{}, false
	}
	var reports []BenchReport
	if err := json.Unmarshal(data, &reports); err != nil {
		var single BenchReport
		if json.Unmarshal(data, &single) != nil {
			return BenchReport{}, false
		}
		reports = []BenchReport{single}
	}
	if len(reports) == 0 {
		return BenchReport{}, false
	}
	return reports[len(reports)-1], true
}

// pctDelta renders the signed percentage movement from prev to now.
func pctDelta(prev, now float64) string {
	if prev <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(now-prev)/prev)
}

// writeDeltaTable prints op-by-op movement versus the previous recorded
// run: ns/op with a signed percentage, allocs/op on both sides, and blob
// bytes for the size rows. Informational only — the hard gates are the
// relative structural claims and the committed budgets; wall-clock drift
// between CI machines must not fail the build, but it should be visible
// in the log without diffing two JSON documents by hand.
func writeDeltaTable(w io.Writer, prev, cur BenchReport) {
	prevByOp := make(map[string]BenchRecord, len(prev.Records))
	for _, r := range prev.Records {
		prevByOp[r.Op] = r
	}
	fmt.Fprintf(w, "delta vs previous report (%s/%s):\n", prev.GoVersion, prev.GOARCH)
	fmt.Fprintf(w, "  %-24s %14s %14s %9s  %s\n", "op", "prev", "now", "delta", "allocs/op")
	for _, r := range cur.Records {
		p, ok := prevByOp[r.Op]
		if !ok {
			fmt.Fprintf(w, "  %-24s %14s %14.0f %9s\n", r.Op, "-", r.NsPerOp, "new")
			continue
		}
		delete(prevByOp, r.Op)
		if r.BlobBytes != 0 || p.BlobBytes != 0 {
			fmt.Fprintf(w, "  %-24s %14d %14d %9s  (blob bytes)\n",
				r.Op, p.BlobBytes, r.BlobBytes, pctDelta(float64(p.BlobBytes), float64(r.BlobBytes)))
			continue
		}
		fmt.Fprintf(w, "  %-24s %14.0f %14.0f %9s  %d -> %d\n",
			r.Op, p.NsPerOp, r.NsPerOp, pctDelta(p.NsPerOp, r.NsPerOp), p.AllocsPerOp, r.AllocsPerOp)
	}
	for _, r := range prev.Records {
		if _, dropped := prevByOp[r.Op]; dropped {
			fmt.Fprintf(w, "  %-24s %14.0f %14s %9s\n", r.Op, r.NsPerOp, "-", "dropped")
		}
	}
}

// RunBenchCheck executes the gate, appends the report to outPath, and
// compares it against the budgets at budgetPath. Progress and the verdict
// go to w. A nil error means every gate passed.
func RunBenchCheck(outPath, budgetPath string, w io.Writer) error {
	// Load budgets first: a missing or malformed budget file must fail in
	// milliseconds, not after the PN15 benchmarks.
	budgets, err := loadBudgets(budgetPath)
	if err != nil {
		return fmt.Errorf("bench-check: %w", err)
	}
	report := BenchReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Backends:  []string{lanes.Fast.Name()},
	}
	add := func(r BenchRecord) {
		report.Records = append(report.Records, r)
		if r.BlobBytes != 0 {
			fmt.Fprintf(w, "  %-22s %12d blob bytes\n", r.Op, r.BlobBytes)
			return
		}
		fmt.Fprintf(w, "  %-22s %14.0f ns/op  %6d allocs/op  %10d B/op\n",
			r.Op, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}

	// --- Client pipeline (Test preset): EncodeEncrypt / DecryptDecode ---
	// Pinned to the fast backend regardless of ABCFHE_BACKEND so the
	// committed budgets gate one configuration, not whatever the CI
	// environment happens to export.
	pTest := ckks.TestParams.MustBuild()
	pTest.SetBackend(lanes.Fast)
	kgT := ckks.NewKeyGenerator(pTest, gateSeed())
	skT, pkT := kgT.GenKeyPair()
	encT := ckks.NewEncoder(pTest)
	encryptorT := ckks.NewEncryptor(pTest, pkT, gateSeed())
	decT := ckks.NewDecryptor(pTest, skT)
	msgT := benchMsg(pTest)
	evT := ckks.NewEvaluator(pTest)

	add(record("EncodeEncrypt", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt := encT.Encode(msgT)
			encryptorT.Encrypt(pt)
			pTest.PutPlaintext(pt)
		}
	})))

	low := evT.DropLevel(encryptorT.Encrypt(encT.Encode(msgT)), 2)
	out := make([]complex128, pTest.Slots())
	add(record("DecryptDecode", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt := decT.Decrypt(low)
			encT.DecodeInto(pt, out)
			pTest.PutPlaintext(pt)
		}
	})))

	// --- Rotation (Test preset, max level). Each op runs once before its
	// benchmark: ops near or above benchtime report a b.N=1 round, and an
	// unwarmed round would charge the one-time pool population to
	// allocs/op — the budgets gate the steady state.
	ctT := encryptorT.Encrypt(encT.Encode(msgT))
	rotHy := kgT.GenRotationKeyHybridAt(pTest.GaloisElement(1), pTest.MaxLevel())
	evT.RotateGalois(ctT, rotHy)
	add(record("RotateHybrid", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evT.RotateGalois(ctT, rotHy)
		}
	})))

	// --- BSGS linear transform vs naive per-diagonal rotation (Test
	// preset, fast backend): the structural claim the blocked baby-step/
	// giant-step schedule exists for. A 12-diagonal band at n1=8 pays one
	// shared hoisted decomposition for all seven baby steps plus one giant
	// key switch, where the naive schedule pays eleven independent
	// rotations. The naive baseline is charged only its rotations — none
	// of the diagonal multiplies — so the comparison is conservative.
	const ltDiags = 12
	diagsLT := map[int][]complex128{}
	for d := 0; d < ltDiags; d++ {
		v := make([]complex128, pTest.Slots())
		for r := range v {
			v[r] = complex(float64((r+3*d)%7)/7-0.5, float64((r+d)%5)/5-0.5)
		}
		diagsLT[d] = v
	}
	ltLevel := 2 * pTest.RescalesPerLevel() // the transform's minimum legal level
	lt := encT.NewLinearTransform(diagsLT, ltLevel, 8)
	naiveSteps := make([]int, 0, ltDiags-1)
	for d := 1; d < ltDiags; d++ {
		naiveSteps = append(naiveSteps, d)
	}
	ksLT := kgT.GenEvaluationKeySet(skT, ltLevel,
		append(append([]int{}, lt.Rotations()...), naiveSteps...), false, ckks.GadgetHybrid)
	ctLT := evT.DropLevel(encryptorT.Encrypt(encT.Encode(msgT)), ltLevel)
	evT.LinearTransform(ctLT, lt, ksLT.Rot)
	bsgsBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evT.LinearTransform(ctLT, lt, ksLT.Rot)
		}
	})
	add(record("LinearTransformBSGS", bsgsBench))
	for _, d := range naiveSteps {
		evT.RotateGalois(ctLT, ksLT.Rot[d])
	}
	naiveBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range naiveSteps {
				evT.RotateGalois(ctLT, ksLT.Rot[d])
			}
		}
	})
	add(record("LinearTransformNaive", naiveBench))

	// --- Paper scale: PN15 at max level ---
	p15 := ckks.PN15.MustBuild()
	p15.SetBackend(lanes.Fast)
	kg15 := ckks.NewKeyGenerator(p15, gateSeed())
	sk15, pk15 := kg15.GenKeyPair()
	enc15 := ckks.NewEncoder(p15)
	encryptor15 := ckks.NewEncryptor(p15, pk15, gateSeed())
	ev15 := ckks.NewEvaluator(p15)
	msg15 := benchMsg(p15)
	ct15 := encryptor15.Encrypt(enc15.Encode(msg15))

	// The single-shot rotation first, at a geometry where kernel time (not
	// dispatch overhead) dominates.
	fmt.Fprintln(w, "generating PN15 hybrid rotation key (max depth)…")
	rot15 := kg15.GenRotationKeyHybridAt(p15.GaloisElement(1), p15.MaxLevel())
	ev15.RotateGalois(ct15, rot15)
	add(record("RotateHybridPN15", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev15.RotateGalois(ct15, rot15)
		}
	})))
	rot15 = nil
	runtime.GC()

	// --- CoeffsToSlots at paper scale: the factored homomorphic DFT over
	// the hoisted BSGS path (PN15, StartLevel 10, two butterfly groups per
	// direction — the same schedule the round-trip precision test pins).
	fmt.Fprintln(w, "generating PN15 DFT rotation ladder (hybrid, depth 10)…")
	dft15 := enc15.NewHomomorphicDFT(ckks.HomomorphicDFTConfig{StartLevel: 10, Levels: 2})
	ks15 := kg15.GenEvaluationKeySet(sk15, 10, dft15.Rotations(), true, ckks.GadgetHybrid)
	ct10 := ev15.DropLevel(ct15, 10)
	ev15.CoeffsToSlots(ct10, dft15, ks15.Rot, ks15.Conj)
	c2sBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev15.CoeffsToSlots(ct10, dft15, ks15.Rot, ks15.Conj)
		}
	})
	add(record("CoeffsToSlotsPN15", c2sBench))
	ks15 = nil
	runtime.GC()

	fmt.Fprintln(w, "generating PN15 hybrid relinearization key (max depth)…")
	rlkHy := kg15.GenRelinearizationKeyHybridAt(p15.MaxLevel())
	ev15.MulRelin(ct15, ct15, rlkHy)
	add(record("MulRelinHybridPN15", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev15.MulRelin(ct15, ct15, rlkHy)
		}
	})))

	// --- Polynomial evaluation at paper scale (fast backend, reusing the
	// max-depth relinearization key): the BSGS Chebyshev schedule on a
	// generic degree-7 polynomial at its minimum level, and the degree-15
	// sine-surrogate EvalMod at level 15 — the bootstrap's post-
	// CoeffsToSlots stage the round-trip precision test pins.
	mono7 := make([]complex128, 8)
	for i := range mono7 {
		mono7[i] = complex(1/float64(i+1), 0)
	}
	plan7 := p15.NewEvalPolyPlan(mono7, -1, 1, 0)
	ct7 := ev15.DropLevel(ct15, plan7.Level())
	ev15.EvalPoly(ct7, plan7, rlkHy)
	add(record("EvalPolyPN15", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev15.EvalPoly(ct7, plan7, rlkHy)
		}
	})))
	const modRange = 8.0
	sinCoeffs := fftfp.SinTaylorCoeffs(15)
	monoMod := make([]complex128, len(sinCoeffs))
	pw := modRange / (2 * math.Pi) // default Scaling
	for k, sk := range sinCoeffs {
		monoMod[k] = complex(sk*pw, 0)
		pw *= 2 * math.Pi / modRange
	}
	planMod := p15.NewEvalPolyPlan(monoMod, -modRange, modRange, 15)
	ctMod := ev15.DropLevel(ct15, planMod.Level())
	ev15.EvalPoly(ctMod, planMod, rlkHy)
	add(record("EvalModPN15", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev15.EvalPoly(ctMod, planMod, rlkHy)
		}
	})))

	// --- Evaluation-key blob size (PN15, full depth, 3 rotations) ---
	add(BenchRecord{Op: "EvkBlobHybridPN15", BlobBytes: int64(p15.EvaluationKeyWireBytes(p15.MaxLevel(), 3, false))})

	// --- Delta vs the previous trajectory entry, then append ---
	// The baseline must be read before appendReport rewrites the file.
	if prev, ok := lastReport(outPath); ok {
		writeDeltaTable(w, prev, report)
	}
	if err := appendReport(outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(w, "report appended -> %s\n", outPath)

	// --- Relative gate ---
	var failures []string
	if bsgsBench.NsPerOp() >= naiveBench.NsPerOp() {
		failures = append(failures, fmt.Sprintf(
			"BSGS linear transform (%d ns/op) does not beat naive per-diagonal rotations (%d ns/op)",
			bsgsBench.NsPerOp(), naiveBench.NsPerOp()))
	}

	// --- Budget gates ---
	failures = append(failures, budgetFailures(report, budgets)...)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "FAIL:", f)
		}
		return fmt.Errorf("bench-check: %d gate(s) failed", len(failures))
	}
	fmt.Fprintln(w, "bench-check: all gates passed")
	return nil
}
