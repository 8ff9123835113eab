package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testReport mirrors the ops the gate measures, at the largest measured
// values (GOMAXPROCS=4; see bench_budget.json).
func testReport() BenchReport {
	return BenchReport{Records: []BenchRecord{
		{Op: "EncodeEncrypt", AllocsPerOp: 47},
		{Op: "DecryptDecode", AllocsPerOp: 15},
		{Op: "RotateHybrid", AllocsPerOp: 28},
		{Op: "LinearTransformBSGS", AllocsPerOp: 236},
		{Op: "LinearTransformNaive", AllocsPerOp: 305},
		{Op: "RotateHybridPN15", AllocsPerOp: 40},
		{Op: "MulRelinHybridPN15", AllocsPerOp: 62},
		{Op: "CoeffsToSlotsPN15", AllocsPerOp: 2877},
		{Op: "EvalPolyPN15", AllocsPerOp: 816},
		{Op: "EvalModPN15", AllocsPerOp: 1211},
		{Op: "EvkBlobHybridPN15", BlobBytes: 242221089},
	}}
}

// loadCommittedBudgets reads the repo's bench_budget.json (two levels up
// from this package).
func loadCommittedBudgets(t *testing.T) map[string]budgetEntry {
	t.Helper()
	budgets, err := loadBudgets(filepath.Join("..", "..", "bench_budget.json"))
	if err != nil {
		t.Fatalf("bench_budget.json does not parse: %v", err)
	}
	return budgets
}

// TestCommittedBudgetsPassAtMeasuredValues: the checked-in budget file
// accepts the measured baseline (so a fresh CI run of the gate passes) and
// names only ops the gate actually measures.
func TestCommittedBudgetsPassAtMeasuredValues(t *testing.T) {
	budgets := loadCommittedBudgets(t)
	if fails := budgetFailures(testReport(), budgets); len(fails) != 0 {
		t.Fatalf("committed budgets reject the measured baseline: %v", fails)
	}
	// Every measured op with a deterministic metric must be budgeted —
	// the gate exists to catch regressions, not to watch a subset.
	for _, r := range testReport().Records {
		if _, ok := budgets[r.Op]; !ok {
			t.Errorf("measured op %q has no committed budget", r.Op)
		}
	}
}

// TestBudgetGateCatchesRegressions: exceeding an alloc or blob budget, or
// budgeting a vanished op, fails the gate.
func TestBudgetGateCatchesRegressions(t *testing.T) {
	budgets := map[string]budgetEntry{
		"_comment": {},
		"Op":       {MaxAllocsPerOp: 10},
		"Blob":     {MaxBlobBytes: 100},
		"Vanished": {MaxAllocsPerOp: 1},
	}
	report := BenchReport{Records: []BenchRecord{
		{Op: "Op", AllocsPerOp: 11},
		{Op: "Blob", BlobBytes: 101},
	}}
	fails := budgetFailures(report, budgets)
	if len(fails) != 3 {
		t.Fatalf("want 3 failures (allocs, blob, vanished op), got %v", fails)
	}
	for _, f := range fails {
		if strings.HasPrefix(f, "budget entry \"_comment\"") {
			t.Fatalf("comment key flagged: %v", fails)
		}
	}
}

// TestLastReport: the delta baseline is the final element of the array
// document, a legacy single-object file is accepted, and a missing or
// unparseable file reports no baseline.
func TestLastReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if _, ok := lastReport(path); ok {
		t.Fatal("missing file must report no baseline")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := lastReport(path); ok {
		t.Fatal("garbage file must report no baseline")
	}
	if err := os.WriteFile(path, []byte(`{"go_version":"go1.0","records":[{"op":"Solo","ns_per_op":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if prev, ok := lastReport(path); !ok || prev.GoVersion != "go1.0" {
		t.Fatalf("legacy single-object baseline not lifted: ok=%v prev=%+v", ok, prev)
	}
	first := BenchReport{GoVersion: "go1.1", Records: []BenchRecord{{Op: "A", NsPerOp: 100}}}
	second := BenchReport{GoVersion: "go1.2", Records: []BenchRecord{{Op: "A", NsPerOp: 90}}}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, r := range []BenchReport{first, second} {
		if err := appendReport(path, r); err != nil {
			t.Fatal(err)
		}
	}
	prev, ok := lastReport(path)
	if !ok || prev.GoVersion != "go1.2" || prev.Records[0].NsPerOp != 90 {
		t.Fatalf("baseline is not the last appended report: ok=%v prev=%+v", ok, prev)
	}
}

// TestWriteDeltaTable: matched ops show a signed percentage and the alloc
// movement, blob rows compare bytes, and ops present on only one side are
// labelled new/dropped rather than silently skipped.
func TestWriteDeltaTable(t *testing.T) {
	prev := BenchReport{GoVersion: "go1.1", GOARCH: "amd64", Records: []BenchRecord{
		{Op: "Mul", NsPerOp: 1000, AllocsPerOp: 10},
		{Op: "Blob", BlobBytes: 200},
		{Op: "Gone", NsPerOp: 5},
	}}
	cur := BenchReport{Records: []BenchRecord{
		{Op: "Mul", NsPerOp: 800, AllocsPerOp: 12},
		{Op: "Blob", BlobBytes: 100},
		{Op: "Fresh", NsPerOp: 7},
	}}
	var sb strings.Builder
	writeDeltaTable(&sb, prev, cur)
	out := sb.String()
	for _, want := range []string{
		"go1.1/amd64", "-20.0%", "10 -> 12", "-50.0%", "(blob bytes)", "new", "dropped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Gone") != true || strings.Contains(out, "Fresh") != true {
		t.Errorf("one-sided ops absent from table:\n%s", out)
	}
}

func TestPctDelta(t *testing.T) {
	if got := pctDelta(0, 5); got != "n/a" {
		t.Errorf("pctDelta(0, 5) = %q, want n/a", got)
	}
	if got := pctDelta(200, 250); got != "+25.0%" {
		t.Errorf("pctDelta(200, 250) = %q, want +25.0%%", got)
	}
}
