// Command benchmark is the repository's performance instrument: four
// role-level workloads driven from outside through the public roles
// (KeyOwner, Encryptor, Server) and internal/serve, eight end-to-end
// metrics per workload, and — from a traced pass on the same set-up —
// per-layer spans and kernel probes. README.md has the glossary.
//
//	bash benchmark/run.sh                       # all four workloads, one child process each
//	bash benchmark/run.sh -workload eval_pn15   # one workload, in this process
//	bash benchmark/run.sh -compare a.json b.json
//
// The driver protocol (BENCHMARK.json) is the single-workload form with
// --seed, --seconds and --trace 0|1; its last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload in this process (default: all four, one child process each)")
	seed := fs.Uint64("seed", 1, "derives every message, key seed and device seed of the run")
	seconds := fs.Int("seconds", referenceSeconds, "run length the iteration counts are scaled to")
	trace := fs.String("trace", "both", "0 = untraced pass only, 1 = traced pass and probes only, both")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	outDir := fs.String("out", "", "directory for result and trace files (default benchmark/out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// What a user gets: the default backend and worker count, whatever
	// the caller's environment says.
	os.Unsetenv("ABCFHE_BACKEND")

	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var mode traceMode
	switch *trace {
	case "0":
		mode = traceOff
	case "1":
		mode = traceOnly
	case "both":
		mode = traceBoth
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	if *outDir == "" {
		*outDir = defaultOutDir()
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace, *outDir)
	}
	sc, ok := findScenario(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	res, err := runWorkload(sc, *seed, *seconds, mode, *outDir)
	if err != nil {
		return err
	}
	rep := report{Env: readEnv(*seed), Seconds: *seconds, Workloads: map[string]*workloadResult{sc.name: res}}
	if err := writeReport(filepath.Join(*outDir, sc.name+".result.json"), rep); err != nil {
		return err
	}
	printWorkload(os.Stdout, res)
	return printDriverLine(res, mode)
}

// defaultOutDir is benchmark/out whether the harness was started from the
// repository root (run.sh, the driver) or from the benchmark directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// report is a result file: the environment header and one record per
// workload. A single-workload run writes the same shape with one entry,
// so -compare reads either.
type report struct {
	Env       envHeader                  `json:"env"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// runAll runs every workload strictly one at a time, each in a child
// process of its own so peak_rss_mb and setup_s are attributable, and
// merges their result files into <out>/result.json.
func runAll(seed uint64, seconds int, trace, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	merged := report{Env: readEnv(seed), Seconds: seconds, Workloads: map[string]*workloadResult{}}
	var failed []string
	for _, sc := range scenarios {
		fmt.Printf("=== %s\n", sc.name)
		cmd := exec.Command(self, "-workload", sc.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("%s: FAILED: %v\n", sc.name, err)
			failed = append(failed, sc.name)
			continue
		}
		child, err := readReport(filepath.Join(outDir, sc.name+".result.json"))
		if err != nil {
			return err
		}
		res := child.Workloads[sc.name]
		merged.Workloads[sc.name] = res
		if res == nil || !res.Correct {
			failed = append(failed, sc.name)
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeReport(path, merged); err != nil {
		return err
	}
	fmt.Printf("results -> %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w *os.File, res *workloadResult) {
	fmt.Fprintf(w, "%s seed=%d iterations=%d traced=%d correct=%v failed=%d/%d\n",
		res.Workload, res.Seed, res.Iterations, res.Traced, res.Correct, res.Failed, res.Attempted)
	if res.FailReason != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.FailReason)
	}
	fmt.Fprintf(w, "  result_digest %s\n", res.ResultDigest)
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.PerLayer[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// printDriverLine prints the driver protocol's closing line: with
// --trace 0 every end-to-end metric BENCHMARK.json lists (fail_ratio
// travels as failed/attempted), with --trace 1 every per-layer metric,
// the ones this workload does not exercise reading 0.
func printDriverLine(res *workloadResult, mode traceMode) error {
	line := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metricSet{}}
	if mode == traceOnly {
		for _, d := range perLayer {
			m, ok := res.PerLayer[d.name]
			if !ok {
				m = metric{Unit: d.unit}
			}
			line.Metrics[d.name] = m
		}
	} else {
		for _, d := range endToEnd {
			if d.name != "fail_ratio" {
				line.Metrics[d.name] = res.EndToEnd[d.name]
			}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d iterations failed: %s", res.Workload, res.Failed, res.Attempted, res.FailReason)
	}
	return nil
}
