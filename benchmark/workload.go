package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	abcfhe "repro"
)

// processStart approximates the child process's start: setup_s of the
// first set-up is measured from here, so runtime and flag start-up count.
var processStart = time.Now()

// Pass identifiers salt input derivation so the warm-up, the untraced and
// the traced pass each see their own deterministic messages.
const (
	passWarmup = iota
	passUntraced
	passTraced
)

// iterOut is what one iteration hands back to the pass runner.
type iterOut struct {
	latency time.Duration // the timed region only
	hash    [32]byte      // SHA-256 of the final serialized ciphertext
	wire    int64         // serialized bytes that crossed a role boundary
	bits    float64       // worst-slot precision vs the shadow; <0 = not verified
	err     error
}

// runner is one workload bound to a seed. Every call into the library
// happens in its methods, from outside, through the public roles (and
// internal/serve over HTTP); the probes alone reach below them.
type runner interface {
	// setup builds parties, keys, plans and inputs, ships key blobs across
	// the role boundaries, and runs one warm-up iteration. Setup-phase
	// spans go to tr (never nil). It returns the key-blob bytes shipped.
	setup(tr *tracer) (setupWire int64, err error)
	// iterate runs op i of a pass. With verify set it also checks the
	// output against the plaintext shadow, outside the timed region.
	iterate(pass, i int, verify bool, tr *tracer) iterOut
	// layerMetrics turns the traced pass's spans into per-layer metrics.
	// It gets the tracer rather than a snapshot so a workload can append
	// reference spans (serve's in-process calls) before reading them.
	layerMetrics(tr *tracer, out metricSet)
	// probes times the exported kernels underneath this workload's path.
	probes(out metricSet)
	// close releases parties, servers and temp dirs.
	close()
}

// scenario is a workload's fixed shape: the constants later issues cite.
type scenario struct {
	name string
	// iters/traced are the iteration counts of the untraced and traced
	// pass at the reference run length (BENCHMARK.json run_seconds);
	// --seconds scales both linearly. Fixed counts, not durations: the
	// work is identical run to run, so outputs can be digested.
	iters, traced int
	callers       int     // closed-loop caller goroutines
	setups        int     // set-ups per run; setup_s is their median
	verifyAll     bool    // check every iteration (else first and last)
	floorBits     float64 // precision floor; below it an iteration fails
	minAvailMB    float64 // pre-flight MemAvailable requirement (0 = none)
	build         func(seed uint64, tmpDir string) runner
}

// referenceSeconds is the run length the iteration constants are sized
// for; it equals run_seconds in BENCHMARK.json.
const referenceSeconds = 20

var scenarios = []scenario{
	// The paper's evaluation point (24-limb encode+encrypt, 2-limb
	// decrypt+decode at N=2^16): FFT, PRNG, limb NTTs, CRT and
	// (de)serialization with no key switching at all, so key-switch and
	// serve changes must predict no change here.
	{
		name:  "client_pn16",
		iters: 100, traced: 30, callers: 1, setups: 5, floorBits: 40,
		build: func(seed uint64, _ string) runner { return newClientRunner(abcfhe.PN16, 2, seed) },
	},
	// The keyless Server at the preset every recorded key-switch number
	// uses; over 95 % of the time is single-shot hybrid key switches,
	// encode/PRNG/HTTP do nothing.
	{
		name:  "eval_pn15",
		iters: 12, traced: 6, callers: 1, setups: 1, floorBits: 40,
		build: func(seed uint64, _ string) runner { return newEvalRunner(abcfhe.PN15, seed) },
	},
	// The C2S → EvalMod → S2C chain: hoisted rotations inside
	// LinearTransform, relinearisations inside EvalPoly and a 37-rotation
	// 1.2 GB key blob, so a hoisted-vs-single-shot trade-off shows with
	// opposite signs here and on eval_pn15, and key-size work shows here.
	{
		name:  "bootchain_pn14",
		iters: 4, traced: 3, callers: 1, setups: 1, floorBits: 30, minAvailMB: 7 * 1024,
		build: func(seed uint64, _ string) runner { return newBootchainRunner(seed) },
	},
	// Device encrypt → wire → internal/serve → owner decrypt at small N,
	// where per-request overheads (frames, dispatch, cache, allocations)
	// are a visible share; two key sets under a cache that holds one.
	{
		name:  "serve_pn13",
		iters: 110, traced: 40, callers: serveCallers, setups: 3, verifyAll: true, floorBits: 39,
		build: func(seed uint64, tmp string) runner { return newServeRunner(abcfhe.PN13, seed, tmp) },
	},
}

func findScenario(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// scaled sizes an iteration constant for the requested run length.
func scaled(base, seconds int) int {
	return max(1, int(math.Round(float64(base)*float64(seconds)/referenceSeconds)))
}

// passResult aggregates one pass.
type passResult struct {
	latMS     []float64
	wall      time.Duration
	attempted int
	failed    int
	firstFail string
	minBits   float64
	wireMB    float64 // per op
	digest    string
}

// runPass drives n iterations closed-loop from `callers` goroutines.
// Iterations are assigned statically (caller c runs c, c+callers, …) so
// each device's call sequence — and with it every ciphertext byte — is a
// function of the seed alone, whatever the scheduling. tracerFor picks
// the tracer per iteration (nil = an untraced pass).
func runPass(r runner, sc scenario, pass, n int, tracerFor func(i int) *tracer) passResult {
	outs := make([]iterOut, n)
	verify := func(i int) bool { return sc.verifyAll || i == 0 || i == n-1 }
	tr := func(i int) *tracer {
		if tracerFor == nil {
			return nil
		}
		return tracerFor(i)
	}
	start := time.Now()
	if sc.callers == 1 {
		for i := range outs {
			if tracerFor != nil {
				// The traced pass collects between iterations (one caller:
				// nobody else is stopped by it), so no iteration — traced
				// or not — shares its time with a concurrent GC cycle, which
				// on the allocation-heavy chains slows three consecutive
				// iterations by 20 % and would swamp the spans and the
				// overhead estimate at n = 3.
				runtime.GC()
			}
			outs[i] = r.iterate(pass, i, verify(i), tr(i))
		}
	} else {
		var wg sync.WaitGroup
		for c := 0; c < sc.callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < n; i += sc.callers {
					outs[i] = r.iterate(pass, i, verify(i), tr(i))
				}
			}(c)
		}
		wg.Wait()
	}
	res := passResult{wall: time.Since(start), attempted: n, minBits: precisionCeilingBits}
	if sc.callers == 1 {
		// One caller: the pass's wall time is the sum of the timed regions;
		// digesting and shadow checks between them are the harness's cost.
		res.wall = 0
		for _, o := range outs {
			res.wall += o.latency
		}
	}
	var wire int64
	hashes := make([][32]byte, n)
	for i, o := range outs {
		res.latMS = append(res.latMS, ms(o.latency))
		wire += o.wire
		hashes[i] = o.hash
		fail := ""
		switch {
		case o.err != nil:
			fail = o.err.Error()
		case o.bits >= 0:
			res.minBits = math.Min(res.minBits, o.bits)
			if o.bits < sc.floorBits {
				fail = fmt.Sprintf("precision %.1f bits below the floor %.0f", o.bits, sc.floorBits)
			}
		}
		if fail != "" {
			res.failed++
			if res.firstFail == "" {
				res.firstFail = fmt.Sprintf("iteration %d: %s", i, fail)
			}
		}
	}
	res.wireMB = float64(wire) / float64(n) / 1e6
	res.digest = digestOf(hashes)
	return res
}

// digestOf is result_digest: SHA-256 over (iteration index, SHA-256 of
// that iteration's final serialized ciphertext) in index order. The
// hashes are slotted by index before digesting, so the order in which
// concurrent callers finished cannot change it.
func digestOf(hashes [][32]byte) string {
	h := sha256.New()
	var idx [8]byte
	for i, sum := range hashes {
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadResult is one workload's record in a result file.
type workloadResult struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Iterations   int       `json:"iterations"`
	Traced       int       `json:"traced_iterations"` // the traced pass runs as many untraced ones in between
	Correct      bool      `json:"correct"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	FailReason   string    `json:"fail_reason,omitempty"`
	ResultDigest string    `json:"result_digest"`
	LatenciesMS  []float64 `json:"latencies_ms"` // untraced pass, index order
	TracedDigest string    `json:"traced_digest,omitempty"`
	EndToEnd     metricSet `json:"end_to_end"`
	PerLayer     metricSet `json:"per_layer,omitempty"`
}

// traceMode selects the passes of a run.
type traceMode int

const (
	traceOff  traceMode = iota // untraced pass only: the end-to-end metrics
	traceOnly                  // a short untraced pass, the traced pass, probes
	traceBoth                  // full untraced pass, then traced pass and probes
)

// runWorkload executes one workload in this process: set-up (repeated
// sc.setups times, median reported), the untraced pass, and — when mode
// asks — the traced pass and kernel probes on the same set-up.
func runWorkload(sc scenario, seed uint64, seconds int, mode traceMode, outDir string) (*workloadResult, error) {
	res := &workloadResult{Workload: sc.name, Seed: seed,
		EndToEnd: metricSet{}, PerLayer: metricSet{}}
	if sc.minAvailMB > 0 {
		if avail := float64(memAvailableKB()) / 1024; avail > 0 && avail < sc.minAvailMB {
			return nil, fmt.Errorf("%s needs MemAvailable ≥ %.0f MB, the machine has %.0f MB: not starting (an OOM kill must not be the failure mode)",
				sc.name, sc.minAvailMB, avail)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(outDir, "tmp-"+sc.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)

	// Set-up, sc.setups times over; the last one stays for the passes.
	var r runner
	var setupTr *tracer
	var setupWire int64
	var setupS []float64
	for k := 0; k < sc.setups; k++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		setupTr = newTracer()
		r = sc.build(seed, filepath.Join(tmpDir, fmt.Sprintf("setup%d", k)))
		if setupWire, err = r.setup(setupTr); err != nil {
			r.close()
			return nil, fmt.Errorf("%s set-up: %w", sc.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { r.close() }()

	n, nt := scaled(sc.iters, seconds), scaled(sc.traced, seconds)
	if mode == traceOnly {
		n = nt
	}
	res.Iterations = n

	// Untraced pass: every end-to-end metric comes from here.
	var m0, m1 runtime.MemStats
	settleHeap()
	runtime.ReadMemStats(&m0)
	up := runPass(r, sc, passUntraced, n, nil)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()

	res.Attempted, res.Failed, res.FailReason = up.attempted, up.failed, up.firstFail
	res.ResultDigest, res.LatenciesMS = up.digest, up.latMS
	res.EndToEnd.set("setup_s", median(setupS))
	res.EndToEnd.set("op_ms_p50", median(up.latMS))
	res.EndToEnd.set("ops_per_s", float64(n)/up.wall.Seconds())
	res.EndToEnd.set("peak_rss_mb", rss)
	res.EndToEnd.set("wire_mb_per_op", up.wireMB)
	res.EndToEnd.set("setup_wire_mb", float64(setupWire)/1e6)
	res.EndToEnd.set("precision_bits_min", up.minBits)
	res.EndToEnd.set("fail_ratio", float64(up.failed)/float64(up.attempted))

	ops := float64(n)
	res.PerLayer.set("go.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops/1e6)
	res.PerLayer.set("go.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	res.PerLayer.set("go.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/ops)
	res.PerLayer.set("go.gc_pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs)/ops/1e6)
	res.PerLayer.set("go.heap_inuse_mb_end", float64(m1.HeapInuse)/1e6)

	if mode != traceOff {
		// Traced pass: same process, same set-up, spans around every call
		// into a layer; then the kernel probes. Untraced iterations run in
		// between the traced ones, so trace.overhead_ratio compares
		// neighbours that met the same machine state (two separate passes
		// differ by ±4 % on this box from drift alone).
		res.Traced = nt
		tr := setupTr // one time base: the trace file shows set-up, then the pass
		traced := interleave(2*nt, sc.callers, seed)
		tp := runPass(r, sc, passTraced, 2*nt, func(i int) *tracer {
			if traced[i] {
				return tr
			}
			return nil
		})
		res.TracedDigest = tp.digest
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		if res.FailReason == "" {
			res.FailReason = tp.firstFail
		}
		r.layerMetrics(tr, res.PerLayer)
		spans := tr.snapshot()
		setupSpanMetrics(spans, res.PerLayer)
		res.PerLayer.set("trace.overhead_ratio", pairedOverhead(tp.latMS, traced, sc.callers))
		res.PerLayer.set("trace.self_ratio", selfRatio(spans, spanIteration))
		if err := writeTrace(filepath.Join(outDir, sc.name+".trace.json"), sc.name, seed, spans); err != nil {
			return nil, err
		}
		r.probes(res.PerLayer)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// settleHeap collects garbage and returns free pages before the untraced
// pass, so peak RSS and the runtime counters measure the pass rather than
// what set-up left behind.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// interleave marks which of n iterations are traced: of every two
// consecutive rounds (one iteration per caller each) a seeded coin picks
// the traced one. Exactly half are traced, every caller alternates, and
// no periodic structure of a workload (serve's blocks of eight) can line
// up with the choice the way a fixed ABAB pattern would.
func interleave(n, callers int, seed uint64) []bool {
	coin := splitmix{s: seed}.fork(99)
	plan := make([]bool, n)
	rounds := (n + callers - 1) / callers
	for r := 0; r+1 < rounds; r += 2 {
		pick := r + int(coin.next()&1)
		for i := pick * callers; i < min((pick+1)*callers, n); i++ {
			plan[i] = true
		}
	}
	return plan
}

// pairedOverhead is trace.overhead_ratio: for every caller and every two
// consecutive rounds — one traced, one not, neighbours in time — the
// traced latency over the untraced one; the median of those ratios, − 1.
// Pairing neighbours cancels drift, and the median ignores the pairs a
// slow outlier (a cache reload, a GC cycle) fell into on either side.
func pairedOverhead(latMS []float64, traced []bool, callers int) float64 {
	var ratios []float64
	for a := 0; a+callers < len(latMS); a++ {
		b := a + callers
		if (a/callers)%2 != 0 || traced[a] == traced[b] {
			continue
		}
		if traced[a] {
			ratios = append(ratios, latMS[a]/latMS[b])
		} else {
			ratios = append(ratios, latMS[b]/latMS[a])
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

// spanIteration names the root span of one iteration; the role and HTTP
// spans are its children and its self time is the harness's own cost.
const spanIteration = "iteration"

// setupSpanMetrics reports the set-up phase spans wherever keys exist.
func setupSpanMetrics(spans []span, out metricSet) {
	for _, name := range []string{"keyowner.keygen_s", "keyowner.export_evk_s", "server.import_evk_s", "server.plan_build_s", "serve.register_s"} {
		if ds := durationsOf(spans, name); len(ds) > 0 {
			total := 0.0
			for _, d := range ds {
				total += d
			}
			out.set(name, total/1e3)
		}
	}
}

// spanMedians reports the median of each named span as <name> in ms.
func spanMedians(spans []span, out metricSet, names ...string) {
	for _, name := range names {
		if ds := durationsOf(spans, name); len(ds) > 0 {
			out.set(name, median(ds))
		}
	}
}
