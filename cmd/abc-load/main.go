// Command abc-load is the load-generator harness for `abc-fhe serve`:
// it simulates a fleet of encrypt-only devices (each an
// abcfhe.Encryptor built from the public-key blob alone — no secret
// material anywhere in this process), registers N service sessions from
// evaluation-key blobs, drives a mixed operation profile against
// /v1/eval/*, and reports throughput and latency percentiles.
//
//	abc-load -addr http://127.0.0.1:8791 -pk pk.key -evk evk.bin \
//	    -sessions 2 -fleet 4 -ops 200 -concurrency 8 -mix mul=1,rotate=1,innersum=1
//
// -evk accepts a comma-separated list; sessions round-robin over the
// blobs, so two distinct key sets against a small -cache-bytes budget
// exercise the server's eviction/reload path under load. -check hashes
// every response and asserts that repeats of the same (op, device, key
// blob) triple stay byte-identical across sessions and time — FHE ops
// here are deterministic, so any drift is silent corruption. Exit
// status is non-zero on zero completed ops, any hard error, or any
// consistency mismatch.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	abcfhe "repro"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abc-load:", err)
		os.Exit(1)
	}
}

type opResult struct {
	op  string
	d   time.Duration
	err error
}

type client struct {
	addr string
	hc   *http.Client
}

func (c *client) post(path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

type sessionInfo struct {
	Session string `json:"session"`
	Slots   int    `json:"slots"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("abc-load", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8791", "serve endpoint base URL")
	pkPath := fs.String("pk", "pk.key", "public-key blob (the only key material devices get)")
	evkPaths := fs.String("evk", "evk.bin", "comma-separated evaluation-key blobs; sessions round-robin over them")
	nSessions := fs.Int("sessions", 2, "service sessions to register")
	fleet := fs.Int("fleet", 4, "simulated encryptor devices")
	totalOps := fs.Int("ops", 100, "operations to complete (0 = duration-bound only)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = ops-bound only)")
	concurrency := fs.Int("concurrency", 8, "parallel request workers")
	mix := fs.String("mix", "mul=1,rotate=1,innersum=1", "op mix, name=weight pairs (mul, rotate, conjugate, innersum, dot)")
	span := fs.Int("span", 4, "innersum span (key blobs must carry its rotation ladder)")
	rotateBy := fs.Int("rotate-by", 1, "rotation step for the rotate op")
	seed := fs.Uint64("seed", 1, "device seed base (device i uses seeds 2i, 2i+1 offset by this)")
	check := fs.Bool("check", false, "verify responses stay byte-identical per (op, device, key blob)")
	dumpMetrics := fs.Bool("metrics", false, "print the server's cache/backpressure metrics when done")
	throttleSleep := fs.Duration("throttle-sleep", 100*time.Millisecond, "backoff after a 429/503 before retrying")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *totalOps == 0 && *duration == 0 {
		return fmt.Errorf("need -ops or -duration")
	}

	pk, err := os.ReadFile(*pkPath)
	if err != nil {
		return err
	}
	var evks [][]byte
	for _, p := range strings.Split(*evkPaths, ",") {
		blob, err := os.ReadFile(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		evks = append(evks, blob)
	}

	weighted, err := parseMix(*mix)
	if err != nil {
		return err
	}

	c := &client{addr: strings.TrimRight(*addr, "/"), hc: &http.Client{Timeout: 5 * time.Minute}}

	// Register sessions round-robin over the key blobs.
	sessions := make([]sessionInfo, *nSessions)
	blobOf := make([]int, *nSessions)
	for i := range sessions {
		bi := i % len(evks)
		status, body, err := c.post("/v1/sessions", "application/octet-stream", evks[bi])
		if err != nil {
			return fmt.Errorf("registering session %d: %w", i, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("registering session %d: HTTP %d: %s", i, status, body)
		}
		if err := json.Unmarshal(body, &sessions[i]); err != nil {
			return fmt.Errorf("registering session %d: %w", i, err)
		}
		blobOf[i] = bi
	}
	fmt.Printf("abc-load: %d sessions over %d key blob(s) at %s\n", len(sessions), len(evks), c.addr)

	// The device fleet: public key only. Each device encrypts two
	// deterministic messages up front; the run phase is pure traffic.
	devices := make([]*abcfhe.Encryptor, *fleet)
	cts := make([][2][]byte, *fleet)
	for i := range devices {
		enc, err := abcfhe.NewEncryptor(pk, *seed+uint64(2*i), *seed+uint64(2*i+1))
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		devices[i] = enc
		defer enc.Close()
		for j := 0; j < 2; j++ {
			msg := deviceMessage(enc.Slots(), i, j)
			ct, err := enc.EncodeEncrypt(msg)
			if err != nil {
				return fmt.Errorf("device %d encrypt: %w", i, err)
			}
			data, err := enc.SerializeCiphertext(ct)
			if err != nil {
				return err
			}
			cts[i][j] = data
		}
	}
	weightsPart := dotWeights(8)

	var (
		next      atomic.Int64
		completed atomic.Int64
		throttled atomic.Int64
		hardErrs  atomic.Int64
		mismatch  atomic.Int64
		resMu     sync.Mutex
		results   []opResult
		seen      sync.Map // consistency key -> sha256 of first response
	)
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	runOne := func(i int64) {
		op := weighted[int(i)%len(weighted)]
		si := int(i) % len(sessions)
		di := int(i) % len(devices)
		sess := sessions[si]
		q := fmt.Sprintf("?session=%s", sess.Session)
		var body []byte
		switch op {
		case "mul":
			body = serve.EncodeFrames(cts[di][0], cts[di][1])
		case "dot":
			body = serve.EncodeFrames(cts[di][0], weightsPart)
			q += "&rescale=0"
		case "rotate":
			body = serve.EncodeFrames(cts[di][0])
			q += fmt.Sprintf("&by=%d", *rotateBy)
		case "innersum":
			body = serve.EncodeFrames(cts[di][0])
			q += fmt.Sprintf("&span=%d", *span)
		case "conjugate":
			body = serve.EncodeFrames(cts[di][0])
		}
		start := time.Now()
		for attempt := 0; ; attempt++ {
			status, resp, err := c.post("/v1/eval/"+op+q, serve.ContentTypeFrames, body)
			switch {
			case err != nil:
				hardErrs.Add(1)
				recordResult(&resMu, &results, opResult{op, time.Since(start), err})
				return
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				throttled.Add(1)
				if attempt >= 50 {
					hardErrs.Add(1)
					recordResult(&resMu, &results, opResult{op, time.Since(start), fmt.Errorf("still throttled after %d attempts", attempt)})
					return
				}
				time.Sleep(*throttleSleep)
				continue
			case status != http.StatusOK:
				hardErrs.Add(1)
				recordResult(&resMu, &results, opResult{op, time.Since(start), fmt.Errorf("HTTP %d: %.120s", status, resp)})
				return
			}
			completed.Add(1)
			recordResult(&resMu, &results, opResult{op, time.Since(start), nil})
			if *check {
				key := fmt.Sprintf("%s|%d|%d", op, di, blobOf[si])
				sum := sha256.Sum256(resp)
				if prev, loaded := seen.LoadOrStore(key, sum); loaded && prev.([32]byte) != sum {
					mismatch.Add(1)
					fmt.Fprintf(os.Stderr, "abc-load: CONSISTENCY MISMATCH for %s\n", key)
				}
			}
			return
		}
	}

	startWall := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if *totalOps > 0 && i >= int64(*totalOps) {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(startWall)

	report(results, wall, completed.Load(), throttled.Load(), hardErrs.Load())
	if *check {
		n := 0
		seen.Range(func(any, any) bool { n++; return true })
		fmt.Printf("consistency: %d distinct (op, device, blob) keys, %d mismatches\n", n, mismatch.Load())
	}
	if *dumpMetrics {
		if resp, err := c.hc.Get(c.addr + "/metrics"); err == nil {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(data), "\n") {
				if strings.HasPrefix(line, "abcfhe_serve_cache_") || strings.HasPrefix(line, "abcfhe_serve_throttled_") ||
					strings.HasPrefix(line, "abcfhe_serve_queue_depth ") || strings.HasPrefix(line, "abcfhe_serve_inflight ") {
					fmt.Println(line)
				}
			}
		}
	}

	switch {
	case completed.Load() == 0:
		return fmt.Errorf("no operations completed")
	case hardErrs.Load() > 0:
		return fmt.Errorf("%d hard errors", hardErrs.Load())
	case mismatch.Load() > 0:
		return fmt.Errorf("%d consistency mismatches", mismatch.Load())
	}
	return nil
}

func recordResult(mu *sync.Mutex, results *[]opResult, r opResult) {
	mu.Lock()
	*results = append(*results, r)
	mu.Unlock()
}

// deviceMessage is the deterministic per-device payload: distinct per
// (device, slot, index) but reproducible run to run, so -check
// comparisons are meaningful across invocations against a fresh server.
func deviceMessage(slots, device, j int) []complex128 {
	msg := make([]complex128, slots)
	for s := range msg {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(device)<<32|uint64(j)<<16|uint64(s))
		h := sha256.Sum256(b[:])
		re := float64(int64(binary.LittleEndian.Uint64(h[:8])>>12))/float64(1<<52) - 0.5
		im := float64(int64(binary.LittleEndian.Uint64(h[8:16])>>12))/float64(1<<52) - 0.5
		msg[s] = complex(re, im)
	}
	return msg
}

// dotWeights renders a small weight vector in the CLI message-file
// format the dot endpoint consumes.
func dotWeights(n int) []byte {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%g %g\n", float64(i+1)/float64(n), 0.25)
	}
	return []byte(sb.String())
}

func parseMix(mix string) ([]string, error) {
	known := map[string]bool{"mul": true, "rotate": true, "conjugate": true, "innersum": true, "dot": true}
	var weighted []string
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w < 0 {
				return nil, fmt.Errorf("mix weight %q", part)
			}
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown op %q in -mix", name)
		}
		for i := 0; i < w; i++ {
			weighted = append(weighted, name)
		}
	}
	if len(weighted) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	return weighted, nil
}

func report(results []opResult, wall time.Duration, completed, throttled, hardErrs int64) {
	perOp := map[string][]time.Duration{}
	var all []time.Duration
	for _, r := range results {
		if r.err == nil {
			perOp[r.op] = append(perOp[r.op], r.d)
			all = append(all, r.d)
		}
	}
	rps := float64(completed) / wall.Seconds()
	fmt.Printf("abc-load: %d ops in %.2fs (%.1f ops/s), %d throttle retries, %d hard errors\n",
		completed, wall.Seconds(), rps, throttled, hardErrs)
	names := make([]string, 0, len(perOp))
	for n := range perOp {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-10s %7s %10s %10s %10s %10s\n", "op", "count", "p50", "p90", "p99", "max")
	for _, n := range names {
		printPercentiles(n, perOp[n])
	}
	if len(all) > 0 {
		printPercentiles("ALL", all)
	}
}

func printPercentiles(name string, ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(ds)-1))
		return ds[i]
	}
	fmt.Printf("  %-10s %7d %10s %10s %10s %10s\n", name, len(ds),
		round(pct(0.50)), round(pct(0.90)), round(pct(0.99)), round(ds[len(ds)-1]))
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
