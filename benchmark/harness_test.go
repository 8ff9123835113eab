package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	abcfhe "repro"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // unsorted on purpose; must not be modified
	for _, tc := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {90, 50}, {100, 50},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(p=%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if vals[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "iteration", StartUS: 0, EndUS: 100, Parent: noSpan},
		{ID: 1, Name: "a", StartUS: 10, EndUS: 40, Parent: 0},
		{ID: 2, Name: "b", StartUS: 30, EndUS: 60, Parent: 0},  // overlaps a
		{ID: 3, Name: "c", StartUS: 35, EndUS: 38, Parent: 0},  // inside both
		{ID: 4, Name: "d", StartUS: 90, EndUS: 130, Parent: 0}, // outlives the parent
		{ID: 5, Name: "e", StartUS: 15, EndUS: 20, Parent: 1},  // grandchild: not the parent's
	}
	// Children cover [10,60) ∪ [90,100) = 60 µs of the 100.
	if got := selfTimeUS(spans, 0); got != 40 {
		t.Errorf("self time = %d µs, want 40", got)
	}
	if got := selfTimeUS(spans, 1); got != 25 {
		t.Errorf("self time of a = %d µs, want 25", got)
	}
	if got := selfRatio(spans, "iteration"); got != 0.4 {
		t.Errorf("self ratio = %g, want 0.4", got)
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricDef{"latency", "ms", false, boundRelative, 0.08}
	higher := metricDef{"throughput", "1/s", true, boundRelative, 0.08}
	bits := metricDef{"precision_bits_min", "bits", true, boundAbsolute, 1}
	exact := metricDef{"wire_mb_per_op", "MB", false, boundRelative, 0}
	none := metricDef{"fail_ratio", "ratio", false, boundAbsolute, 0}
	for _, tc := range []struct {
		d    metricDef
		a, b float64
		ok   bool
	}{
		{lower, 100, 107.9, true},
		{lower, 100, 108.1, false},
		{lower, 100, 50, true}, // better is never a violation
		{higher, 10, 9.21, true},
		{higher, 10, 9.19, false},
		{higher, 10, 20, true},
		{bits, 46, 45.1, true},
		{bits, 46, 44.9, false},
		{bits, 46, 50, true},
		{exact, 18.74333, 18.74333, true},
		{exact, 18.74333, 18.74334, false},
		{exact, 18.74333, 9, true},
		{none, 0, 0, true},
		{none, 0, 0.01, false},
	} {
		if got := withinBound(tc.d, tc.a, tc.b); got != tc.ok {
			t.Errorf("%s: %g → %g within bound = %v, want %v", tc.d.name, tc.a, tc.b, got, tc.ok)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(p50, bits float64, digest string) report {
		e2e := metricSet{}
		for _, d := range endToEnd {
			e2e[d.name] = metric{Value: 1, Unit: d.unit}
		}
		e2e["op_ms_p50"] = metric{Value: p50, Unit: "ms"}
		e2e["precision_bits_min"] = metric{Value: bits, Unit: "bits"}
		e2e["fail_ratio"] = metric{Value: 0, Unit: "ratio"}
		return report{Workloads: map[string]*workloadResult{"client_pn16": {
			Workload: "client_pn16", Seed: 1, Iterations: 100, ResultDigest: digest, EndToEnd: e2e}}}
	}
	violations := func(a, b report) (names []string) {
		for _, v := range compareReports(a, b) {
			if !v.ok {
				names = append(names, v.metric)
			}
		}
		return names
	}
	base := mk(200, 46, "abc")
	if got := violations(base, mk(210, 45.5, "abc")); len(got) != 0 {
		t.Errorf("agreeing runs flagged: %v", got)
	}
	if got := violations(base, mk(240, 46, "abc")); len(got) != 1 || got[0] != "op_ms_p50" {
		t.Errorf("20%% slower: violations %v, want [op_ms_p50]", got)
	}
	if got := violations(base, mk(200, 46, "abd")); len(got) != 1 || got[0] != "result_digest" {
		t.Errorf("digest mismatch: violations %v, want [result_digest]", got)
	}
	// Within one bit of the baseline but under client_pn16's 40-bit floor.
	if got := violations(mk(200, 40.5, "abc"), mk(200, 39.8, "abc")); len(got) != 1 || got[0] != "precision_bits_min" {
		t.Errorf("below the floor: violations %v, want [precision_bits_min]", got)
	}
	if got := violations(base, report{}); len(got) != 1 {
		t.Errorf("missing workload: violations %v, want one", got)
	}
}

func TestParseMetricsText(t *testing.T) {
	text := `# HELP ignored
abcfhe_serve_op_requests_total{op="mul",outcome="ok"} 12
abcfhe_serve_op_latency_seconds_sum{op="mul"} 1.5
abcfhe_serve_op_latency_seconds_sum{op="rotate"} 0.25
abcfhe_serve_op_latency_seconds_bucket{op="mul",le="+Inf"} 12

abcfhe_serve_cache_hits_total 40
abcfhe_serve_cache_hits_total_extra 7
`
	m, err := parseMetricsText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`abcfhe_serve_op_requests_total{op="mul",outcome="ok"}`]; got != 12 {
		t.Errorf("labelled series = %g, want 12", got)
	}
	if got := sumSeries(m, "abcfhe_serve_op_latency_seconds_sum"); got != 1.75 {
		t.Errorf("family sum = %g, want 1.75", got)
	}
	// A family name that is a prefix of another must not absorb it.
	if got := sumSeries(m, "abcfhe_serve_cache_hits_total"); got != 40 {
		t.Errorf("unlabelled series = %g, want 40", got)
	}
	if _, err := parseMetricsText(strings.NewReader("name notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

// stubRunner finishes iterations in an order that depends on the caller
// count: odd iterations are slow, so two callers interleave differently
// from one.
type stubRunner struct{}

func (stubRunner) setup(*tracer) (int64, error) { return 0, nil }
func (stubRunner) iterate(_, i int, _ bool, _ *tracer) iterOut {
	if i%2 == 1 {
		time.Sleep(2 * time.Millisecond)
	}
	var h [32]byte
	h[0], h[1] = byte(i), byte(i>>8)
	return iterOut{latency: time.Millisecond, hash: h, wire: 10, bits: -1}
}
func (stubRunner) layerMetrics(*tracer, metricSet) {}
func (stubRunner) probes(metricSet)                {}
func (stubRunner) close()                          {}

func TestDigestOrderIndependence(t *testing.T) {
	const n = 24
	one := runPass(stubRunner{}, scenario{callers: 1}, passUntraced, n, nil)
	two := runPass(stubRunner{}, scenario{callers: 2}, passUntraced, n, nil)
	if one.digest != two.digest {
		t.Errorf("digest depends on completion order: %s vs %s", one.digest, two.digest)
	}
	if one.failed != 0 || two.attempted != n || two.wireMB != 10e-6 {
		t.Errorf("pass bookkeeping: %+v", two)
	}
	swapped := make([][32]byte, 2)
	swapped[0][0], swapped[1][0] = 1, 0
	if digestOf(swapped) == digestOf(make([][32]byte, 2)) {
		t.Error("digest ignores content")
	}
}

func TestInterleaveIsBalanced(t *testing.T) {
	for _, tc := range []struct{ n, callers int }{{60, 1}, {80, 2}, {6, 1}, {2, 1}} {
		plan := interleave(tc.n, tc.callers, 1)
		traced := 0
		perCaller := make([]int, tc.callers)
		for i, on := range plan {
			if on {
				traced++
				perCaller[i%tc.callers]++
			}
		}
		if traced != tc.n/2 {
			t.Errorf("n=%d callers=%d: %d traced, want half", tc.n, tc.callers, traced)
		}
		for c, k := range perCaller {
			if k != traced/tc.callers {
				t.Errorf("n=%d: caller %d traces %d of %d", tc.n, c, k, traced)
			}
		}
	}
}

func TestPairedOverhead(t *testing.T) {
	// Two callers, four rounds; traced rounds cost 10 % more, and the
	// whole run drifts 3× slower from the first pair of rounds to the next.
	traced := []bool{true, true, false, false, false, false, true, true}
	lat := []float64{110, 220, 100, 200, 300, 600, 330, 660}
	if got := pairedOverhead(lat, traced, 2); got < 0.0999 || got > 0.1001 {
		t.Errorf("paired overhead = %g, want 0.1", got)
	}
	if got := pairedOverhead([]float64{5}, []bool{false}, 1); got != 0 {
		t.Errorf("no pairs: overhead = %g, want 0", got)
	}
}

// smoke runs a workload's real set-up and iteration code at the Test
// preset: every iteration must succeed, verify against its shadow above a
// Test-sized floor, and repeat byte-for-byte from the same seed.
func smoke(t *testing.T, build func() runner, callers int, floorBits float64) {
	t.Helper()
	digests := make([]string, 2)
	for k := range digests {
		r := build()
		tr := newTracer()
		if _, err := r.setup(tr); err != nil {
			r.close()
			t.Fatalf("set-up: %v", err)
		}
		sc := scenario{callers: callers, verifyAll: true, floorBits: floorBits}
		untraced := runPass(r, sc, passUntraced, 4, nil)
		traced := runPass(r, sc, passTraced, 4, func(int) *tracer { return tr })
		out := metricSet{}
		r.layerMetrics(tr, out)
		r.close()
		for _, p := range []passResult{untraced, traced} {
			if p.failed != 0 {
				t.Fatalf("%d of %d iterations failed: %s", p.failed, p.attempted, p.firstFail)
			}
			if p.minBits < floorBits || p.wireMB <= 0 {
				t.Fatalf("precision %.1f bits (floor %g), wire %g MB", p.minBits, floorBits, p.wireMB)
			}
		}
		if ratio := selfRatio(tr.snapshot(), spanIteration); ratio > 0.5 {
			t.Errorf("spans cover only %.0f%% of the iteration", 100*(1-ratio))
		}
		if len(out) == 0 {
			t.Error("no per-layer metrics from the traced pass")
		}
		t.Logf("precision %.1f bits, %.3f MB/op on the wire", untraced.minBits, untraced.wireMB)
		digests[k] = untraced.digest
	}
	if digests[0] != digests[1] {
		t.Errorf("same seed, different digest: %s vs %s", digests[0], digests[1])
	}
}

func TestClientSmoke(t *testing.T) {
	smoke(t, func() runner { return newClientRunner(abcfhe.Test, 2, 7) }, 1, 12)
}

func TestEvalSmoke(t *testing.T) {
	smoke(t, func() runner { return newEvalRunner(abcfhe.Test, 7) }, 1, 8)
}

func TestServeSmoke(t *testing.T) {
	smoke(t, func() runner { return newServeRunner(abcfhe.Test, 7, t.TempDir()) }, serveCallers, 8)
}

func TestShadowsAgainstHandComputation(t *testing.T) {
	// Four slots are enough to pin index conventions: rot1 reads slot i+1,
	// the inner sum runs forward and wraps.
	x := []complex128{1, 2, 3, 4}
	y := []complex128{complex(0, 1), 1, 1, 1}
	got := serveShadow(x, y)
	// x·y = [i, 2, 3, 4]; rot1 = [2, 3, 4, i]; span 8 over 4 slots sums every slot twice.
	want := complex(18, -2)
	for i, v := range got {
		if v != want {
			t.Errorf("serve shadow slot %d = %v, want %v", i, v, want)
		}
	}
	ev := evalShadow(x, y)
	// conj(rot1(x·y)) = [2, 3, 4, -i]; out = 0.5·(2·Σ + conj[i]).
	if want0 := 0.5 * (complex(18, -2) + 2); ev[0] != want0 {
		t.Errorf("eval shadow slot 0 = %v, want %v", ev[0], want0)
	}
}

// TestBenchmarkJSONMatchesTables keeps the driver-facing declaration and
// the harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, harness reference %d", bj.RunSeconds, referenceSeconds)
	}
	if len(bj.Workloads) != len(scenarios) {
		t.Fatalf("%d workloads declared, %d in the harness", len(bj.Workloads), len(scenarios))
	}
	for i, w := range bj.Workloads {
		if w.Name != scenarios[i].name {
			t.Errorf("workload %d: %q declared, %q in the harness", i, w.Name, scenarios[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	want := map[string]metricDef{}
	for _, d := range endToEnd {
		if d.name != "fail_ratio" { // travels as failed/attempted
			want[d.name] = d
		}
	}
	if len(bj.EndToEnd) != len(want) {
		t.Errorf("%d end-to-end metrics declared, want %d", len(bj.EndToEnd), len(want))
	}
	for _, m := range bj.EndToEnd {
		d, ok := want[m.Name]
		if !ok {
			t.Errorf("end-to-end metric %q is not in the harness table", m.Name)
			continue
		}
		if m.Unit != d.unit || m.Better != better(d.higherBetter) || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: declared %+v, table %+v", m.Name, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, %d in the harness", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if i >= len(perLayer) {
			break
		}
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higherBetter) || m.Bound != nil {
			t.Errorf("per-layer metric %d: declared %+v, table %+v", i, m, d)
		}
	}
}
