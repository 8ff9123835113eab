// Command abcbench regenerates the tables and figures of the ABC-FHE
// paper's evaluation section. Every experiment prints our reproduced
// values next to the paper's published ones.
//
// Usage:
//
//	abcbench -exp all            # run every experiment
//	abcbench -exp fig5a,table2   # run a subset
//	abcbench -exp fig3c -fast    # reduced problem sizes
//	abcbench -exp fig5a -cpu     # also measure the Go CKKS client here
//	abcbench -list               # list experiment ids
//	abcbench -exp table2 -csv    # CSV instead of an aligned table
//
// Benchmark-regression gate (the CI `bench-check` step):
//
//	abcbench -check
//
// runs the client-pipeline, key-switch (MulRelin and Rotate at max level
// on PN15), linear-transform and polynomial-evaluation benchmarks on the
// fast backend, appends the JSON report to -out (BENCH.json), and exits
// non-zero when allocs/op or evaluation-key blob bytes regress past the
// budgets committed in -budget (bench_budget.json) — or when the BSGS
// linear transform stops beating naive per-diagonal rotations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	fast := flag.Bool("fast", false, "reduced problem sizes for quick runs")
	cpu := flag.Bool("cpu", false, "additionally measure the pure-Go CKKS client on this host")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	check := flag.Bool("check", false, "run the benchmark-regression gate instead of experiments")
	checkOut := flag.String("out", "BENCH.json", "bench-check: report output path (appended to, not overwritten)")
	checkBudget := flag.String("budget", "bench_budget.json", "bench-check: committed budget file")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *check {
		if err := bench.RunBenchCheck(*checkOut, *checkBudget, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "abcbench:", err)
			os.Exit(1)
		}
		return
	}

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	opt := bench.Options{Fast: *fast, MeasureCPU: *cpu}
	failed := false
	for _, id := range ids {
		r, err := bench.Run(strings.TrimSpace(id), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abcbench:", err)
			failed = true
			continue
		}
		if *csv {
			fmt.Print(r.CSV())
		} else {
			fmt.Println(r.Render())
		}
	}
	if failed {
		os.Exit(1)
	}
}
