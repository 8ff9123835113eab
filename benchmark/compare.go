package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdict is one row of a comparison.
type verdict struct {
	workload, metric string
	a, b             float64
	textA, textB     string // set instead of a, b for result_digest
	unit             string
	ok               bool
	note             string
}

// worseBy is how far b moved from a in the metric's bad direction
// (positive = worse), in the metric's own unit.
func worseBy(d metricDef, a, b float64) float64 {
	if d.higherBetter {
		return a - b
	}
	return b - a
}

// withinBound applies d's bound in its stated direction: b may be worse
// than a by at most bound × |a| (relative) or bound (absolute). Getting
// better is never a violation.
func withinBound(d metricDef, a, b float64) bool {
	limit := d.bound
	if d.kind == boundRelative {
		limit *= math.Abs(a)
	}
	return worseBy(d, a, b) <= limit
}

// compareReports checks every (workload, end-to-end metric) of b against
// a, each workload's precision floor, and — at equal seed and iteration
// count — that result_digest is identical: evaluation is byte-
// deterministic, so two runs at one seed must produce the same bytes.
func compareReports(a, b report) []verdict {
	var rows []verdict
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			rows = append(rows, verdict{workload: name, metric: "(present)", ok: false, note: "missing from one file"})
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.name]
			mb, okB := wb.EndToEnd[d.name]
			v := verdict{workload: name, metric: d.name, a: ma.Value, b: mb.Value, unit: d.unit}
			switch {
			case !okA || !okB:
				v.note = "missing from one file"
			case !withinBound(d, ma.Value, mb.Value):
				v.note = fmt.Sprintf("worse by %.4g, bound %s", worseBy(d, ma.Value, mb.Value), boundText(d))
			default:
				v.ok = true
			}
			if d.name == "precision_bits_min" && v.ok {
				if sc, found := findScenario(name); found && mb.Value < sc.floorBits {
					v.ok, v.note = false, fmt.Sprintf("below the workload's floor %.0f", sc.floorBits)
				}
			}
			rows = append(rows, v)
		}
		if wa.Seed == wb.Seed && wa.Iterations == wb.Iterations {
			v := verdict{workload: name, metric: "result_digest", ok: wa.ResultDigest == wb.ResultDigest,
				textA: wa.ResultDigest, textB: wb.ResultDigest}
			if !v.ok {
				v.note = fmt.Sprintf("differs at seed %d", wa.Seed)
			}
			rows = append(rows, v)
		}
	}
	for name := range b.Workloads {
		if a.Workloads[name] == nil {
			rows = append(rows, verdict{workload: name, metric: "(present)", ok: false, note: "missing from one file"})
		}
	}
	return rows
}

func boundText(d metricDef) string {
	if d.kind == boundRelative {
		return fmt.Sprintf("%g%%", d.bound*100)
	}
	return fmt.Sprintf("%g %s", d.bound, d.unit)
}

// compareFiles prints one row per (workload, metric) with both values and
// the verdict, and returns an error on any violation.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %-6s %s\n", "workload", "metric", "a", "b", "unit", "verdict")
	for _, v := range compareReports(a, b) {
		word := "ok"
		if !v.ok {
			word = "VIOLATION: " + v.note
			bad++
		}
		colA, colB := fmt.Sprintf("%.6g", v.a), fmt.Sprintf("%.6g", v.b)
		if v.textA != "" || v.textB != "" {
			colA, colB = fmt.Sprintf("%.12s", v.textA), fmt.Sprintf("%.12s", v.textB)
		}
		fmt.Fprintf(w, "%-16s %-20s %14s %14s %-6s %s\n", v.workload, v.metric, colA, colB, v.unit, word)
	}
	if bad > 0 {
		return fmt.Errorf("%d violation(s) comparing %s to %s", bad, pathA, pathB)
	}
	return nil
}
