// Package bench regenerates every table and figure of the paper's
// evaluation section. Each experiment is a named generator returning a
// Result whose rows place our reproduced values next to the paper's
// published ones; cmd/abcbench renders them.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Result is one regenerated experiment.
type Result struct {
	ID          string // "fig5a", "table2", …
	Title       string
	Description string
	Header      []string   // column names
	Rows        [][]string // formatted cells
	Notes       []string   // provenance, deviations, methodology
}

// Render formats the result as an aligned text table.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if r.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Description)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the rows as comma-separated values.
func (r Result) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Generator produces an experiment result. Options tune cost/fidelity
// trade-offs (e.g. the Fig. 3c ring degree); zero-value options select the
// paper configuration where feasible in reasonable time.
type Generator func(opt Options) Result

// Options tunes experiment execution.
type Options struct {
	// Fast reduces problem sizes for quick regression runs (used by unit
	// tests and the default benchmark loop).
	Fast bool
	// MeasureCPU additionally times the pure-Go CKKS client on this host
	// (minutes at the paper parameters; seconds in Fast mode).
	MeasureCPU bool
}

var registry = map[string]Generator{}
var order []string

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment " + id)
	}
	registry[id] = g
	order = append(order, id)
}

// IDs lists registered experiments in registration order.
func IDs() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, opt Options) (Result, error) {
	g, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return g(opt), nil
}

// helpers ----------------------------------------------------------------

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
