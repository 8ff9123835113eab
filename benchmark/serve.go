package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/serve"
)

// serveRunner is serve_pn13: one transaction is
//
//	device encrypts two fresh messages → POST /v1/eval/mul?rescale=1
//	→ rotate?by=1 → innersum?span=8 → conjugate (each response body is
//	the next request body) → owner DeserializeCiphertext + DecryptDecode
//
// against an in-process httptest.Server wrapping serve.New: real HTTP
// over loopback. Two owners, two key blobs, two sessions; the cache budget
// is 1.5 × one blob, so only one key set is resident and the block-of-8
// session schedule forces an evict/reload cycle every eight transactions
// without putting reload-affected transactions at the median.
type serveRunner struct {
	preset abcfhe.Preset
	rng    splitmix
	tmpDir string
	spec   ckks.ParamSpec // read back from a public-key blob; the probes build on it

	owners  [serveSessions]*abcfhe.KeyOwner
	blobs   [serveSessions][]byte
	devices [][serveSessions]*abcfhe.Encryptor // [caller][session]
	svc     *serve.Service
	ts      *httptest.Server
	hc      *http.Client
	session [serveSessions]string

	retries atomic.Int64 // 429/503 responses retried, whole run

	// Traced-pass state. The first traced transaction takes the /metrics
	// baseline before it starts; every serveDirectStep-th one keeps its
	// inputs so the same ops can be replayed in-process afterwards.
	traceOnce  sync.Once
	traceErr   error
	scrapeBase map[string]float64
	directMu   sync.Mutex
	directIn   []directInput
}

const (
	serveSessions   = 2
	serveCallers    = 2
	serveBlock      = 8 // consecutive transactions per session
	serveRetryLimit = 50
	serveRetrySleep = 10 * time.Millisecond
	serveDirectStep = 4 // every n-th traced transaction is replayed in-process
)

var serveOps = [...]struct{ name, query string }{
	{"mul", "rescale=1"},
	{"rotate", "by=1"},
	{"innersum", fmt.Sprintf("span=%d", evalSpan)},
	{"conjugate", ""},
}

func newServeRunner(preset abcfhe.Preset, seed uint64, tmpDir string) *serveRunner {
	return &serveRunner{preset: preset, rng: splitmix{s: seed}, tmpDir: tmpDir}
}

func (s *serveRunner) setup(tr *tracer) (int64, error) {
	keys := s.rng.fork(1)
	var wire int64
	s.devices = make([][serveSessions]*abcfhe.Encryptor, serveCallers)
	id := tr.begin("keyowner.keygen_s", noSpan, -1)
	for k := range s.owners {
		owner, err := abcfhe.NewKeyOwner(s.preset, keys.next(), keys.next())
		if err != nil {
			return 0, err
		}
		s.owners[k] = owner
	}
	tr.end(id)
	for k, owner := range s.owners {
		pk, err := owner.ExportPublicKey()
		if err != nil {
			return 0, err
		}
		wire += int64(len(pk))
		if s.spec, _, err = ckks.ReadKeySpec(pk); err != nil {
			return 0, err
		}
		for c := range s.devices {
			if s.devices[c][k], err = abcfhe.NewEncryptor(pk, keys.next(), keys.next()); err != nil {
				return 0, err
			}
		}
	}
	runtime.GC()
	id = tr.begin("keyowner.export_evk_s", noSpan, -1)
	for k, owner := range s.owners {
		blob, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: evalRotations(), Conjugate: true})
		if err != nil {
			return 0, err
		}
		s.blobs[k] = blob
		wire += int64(len(blob))
	}
	tr.end(id)
	runtime.GC()

	svc, err := serve.New(serve.Config{
		CacheBytes: int64(len(s.blobs[0])) * 3 / 2,
		SpoolDir:   s.tmpDir,
	})
	if err != nil {
		return 0, err
	}
	s.svc = svc
	s.ts = httptest.NewServer(svc)
	s.hc = s.ts.Client()

	id = tr.begin("serve.register_s", noSpan, -1)
	for k, blob := range s.blobs {
		status, body, err := s.post("/v1/sessions", "application/octet-stream", blob)
		if err != nil {
			return 0, err
		}
		if status != http.StatusCreated {
			return 0, fmt.Errorf("registering session %d: HTTP %d: %.200s", k, status, body)
		}
		var reply struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return 0, fmt.Errorf("registering session %d: %w", k, err)
		}
		s.session[k] = reply.Session
	}
	tr.end(id)
	runtime.GC()
	if out := s.iterate(passWarmup, 0, true, nil); out.err != nil {
		return 0, fmt.Errorf("warm-up: %w", out.err)
	}
	return wire, nil
}

func (s *serveRunner) post(path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// Span names below the iteration on this workload. An eval request's
// span covers its retries (what the client observed); each attempt is a
// child, so the HTTP overhead can be read off the successful ones alone.
const (
	spanHTTPOK    = "http.ok"
	spanHTTPRetry = "http.retry"
)

// eval posts one evaluation request, retrying 429/503 after a short
// sleep, and returns the response body and the bytes both ways of the
// attempt that succeeded (throttled attempts are counted as retries, not
// as wire bytes, so wire_mb_per_op repeats exactly).
func (s *serveRunner) eval(op, query, session string, body []byte, tr *tracer, parent, it int) ([]byte, int64, error) {
	path := "/v1/eval/" + op + "?session=" + session
	if query != "" {
		path += "&" + query
	}
	for attempt := 0; ; attempt++ {
		id := tr.begin(spanHTTPOK, parent, it)
		status, resp, err := s.post(path, serve.ContentTypeFrames, body)
		wire := int64(len(body) + len(resp))
		switch {
		case err != nil:
			return nil, wire, err
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			tr.rename(id, spanHTTPRetry)
			tr.end(id)
			s.retries.Add(1)
			if attempt >= serveRetryLimit {
				return nil, wire, fmt.Errorf("%s still throttled after %d attempts", op, attempt)
			}
			time.Sleep(serveRetrySleep)
			continue
		case status != http.StatusOK:
			return nil, wire, fmt.Errorf("%s: HTTP %d: %.200s", op, status, resp)
		}
		tr.end(id)
		return resp, wire, nil
	}
}

// serveShadow is conj(innersum8(rot1(x·y))).
func serveShadow(x, y []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for i := range out {
		sum := complex(0, 0)
		for k := 0; k < evalSpan; k++ {
			j := (i + k + 1) % n
			sum += x[j] * y[j]
		}
		out[i] = cmplx.Conj(sum)
	}
	return out
}

func (s *serveRunner) iterate(pass, i int, verify bool, tr *tracer) iterOut {
	caller, sess := i%serveCallers, (i/serveBlock)%serveSessions
	device, owner := s.devices[caller][sess], s.owners[sess]
	msgRng := s.rng.fork(uint64(100 + pass)).fork(uint64(i))
	mx, my := msgRng.message(owner.Slots()), msgRng.message(owner.Slots())
	if tr != nil {
		s.traceOnce.Do(func() {
			s.retries.Store(0)
			s.scrapeBase, s.traceErr = s.scrape()
		})
		if s.traceErr != nil {
			return iterOut{err: s.traceErr}
		}
	}

	root := tr.begin(spanIteration, noSpan, i)
	t0 := time.Now()
	var parts [2][]byte
	for j, m := range [][]complex128{mx, my} {
		id := tr.begin("encryptor.encode_encrypt_ms", root, i)
		ct, err := device.EncodeEncrypt(m)
		tr.end(id)
		if err != nil {
			return iterOut{err: err}
		}
		id = tr.begin("encryptor.serialize_ms", root, i)
		parts[j], err = device.SerializeCiphertext(ct)
		tr.end(id)
		if err != nil {
			return iterOut{err: err}
		}
	}
	body := serve.EncodeFrames(parts[0], parts[1])
	var wire int64
	for _, op := range serveOps {
		id := tr.begin("serve."+op.name, root, i)
		resp, n, err := s.eval(op.name, op.query, s.session[sess], body, tr, id, i)
		tr.end(id)
		wire += n
		if err != nil {
			return iterOut{err: err}
		}
		body = resp
	}
	id := tr.begin("keyowner.deserialize_ms", root, i)
	frames, err := serve.ReadFrames(bytes.NewReader(body), 1, int64(len(body)))
	var oct *abcfhe.Ciphertext
	if err == nil {
		oct, err = owner.DeserializeCiphertext(frames[0])
	}
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("keyowner.decrypt_decode_ms", root, i)
	got, err := owner.DecryptDecode(oct)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	out := iterOut{latency: time.Since(t0), wire: wire, bits: -1}
	tr.end(root)

	out.hash = sha256.Sum256(frames[0])
	if verify {
		out.bits = ckks.MeasurePrecision(serveShadow(mx, my), got).WorstBits
	}
	if tr != nil && i%serveDirectStep == 0 {
		s.directMu.Lock()
		s.directIn = append(s.directIn, directInput{i, sess, parts})
		s.directMu.Unlock()
	}
	return out
}

// directInput is one traced transaction's request inputs, kept for the
// in-process replay.
type directInput struct {
	iteration, session int
	parts              [2][]byte
}

// replayDirect calls the kept transactions' four ops straight on an
// abcfhe.Server with the same inputs and keys — the denominator of
// serve.inproc_ratio. It runs after the traced pass, from the same number
// of callers, so the direct calls compete for the cores the way the HTTP
// requests did without slowing the transactions being traced.
func (s *serveRunner) replayDirect(tr *tracer) error {
	srv, err := abcfhe.NewServer(s.preset)
	if err != nil {
		return err
	}
	defer srv.Close()
	var keys [serveSessions]*abcfhe.EvaluationKeys
	for k, blob := range s.blobs {
		if keys[k], err = srv.ImportEvaluationKeys(blob); err != nil {
			return err
		}
	}
	errs := make([]error, serveCallers)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(s.directIn) && errs[c] == nil; k += serveCallers {
				in := s.directIn[k]
				errs[c] = runDirect(srv, keys[in.session], in.parts, tr, in.iteration)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runDirect(srv *abcfhe.Server, evk *abcfhe.EvaluationKeys, parts [2][]byte, tr *tracer, i int) error {
	x, err := srv.DeserializeCiphertext(parts[0])
	if err != nil {
		return err
	}
	y, err := srv.DeserializeCiphertext(parts[1])
	if err != nil {
		return err
	}
	id := tr.begin("direct.mul", noSpan, i)
	ct, err := srv.Mul(x, y, evk)
	if err == nil {
		ct, err = srv.Rescale(ct)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("direct.rotate", noSpan, i)
	ct, err = srv.Rotate(ct, 1, evk)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("direct.innersum", noSpan, i)
	ct, err = srv.InnerSum(ct, evalSpan, evk)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("direct.conjugate", noSpan, i)
	_, err = srv.Conjugate(ct, evk)
	tr.end(id)
	return err
}

// scrape fetches /metrics and parses it.
func (s *serveRunner) scrape() (map[string]float64, error) {
	resp, err := s.hc.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetricsText(resp.Body)
}

// parseMetricsText reads the Prometheus text exposition: one
// "name{labels} value" or "name value" per line, # lines are comments.
// Series are keyed by everything before the value, labels included.
func parseMetricsText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of a family (name, any labels).
func sumSeries(m map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

func (s *serveRunner) layerMetrics(tr *tracer, out metricSet) {
	// Scrape first: the replay below does not go through the service.
	after, scrapeErr := s.scrape()
	if err := s.replayDirect(tr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: in-process replay:", err)
	}
	spans := tr.snapshot()
	spanMedians(spans, out, "encryptor.encode_encrypt_ms", "encryptor.serialize_ms",
		"keyowner.deserialize_ms", "keyowner.decrypt_decode_ms")
	var requests, direct []float64
	httpSum, directSum := 0.0, 0.0
	for _, op := range serveOps {
		ds := durationsOf(spans, "serve."+op.name)
		out.set("serve."+op.name+"_ms_p50", median(ds))
		requests = append(requests, ds...)
		httpSum += median(ds)
		dd := durationsOf(spans, "direct."+op.name)
		direct = append(direct, dd...)
		directSum += median(dd)
	}
	out.set("serve.request_ms_p90", percentile(requests, 90))
	out.set("serve.txn_ms_p90", percentile(durationsOf(spans, spanIteration), 90))
	if directSum > 0 {
		// Σ of the four per-op request medians ÷ Σ of the four in-process medians.
		out.set("serve.inproc_ratio", httpSum/directSum)
	}
	out.set("serve.throttle_retries", float64(s.retries.Load()))

	base := s.scrapeBase
	if scrapeErr != nil || base == nil {
		return
	}
	delta := func(family string) float64 { return sumSeries(after, family) - sumSeries(base, family) }
	hits, misses := delta("abcfhe_serve_cache_hits_total"), delta("abcfhe_serve_cache_misses_total")
	if hits+misses > 0 {
		out.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	out.set("serve.cache_reloads", delta("abcfhe_serve_cache_reloads_total"))
	out.set("serve.cache_evictions", delta("abcfhe_serve_cache_evictions_total"))
	out.set("serve.pressure_rejects", delta("abcfhe_serve_cache_pressure_rejects_total"))
	if batches := delta("abcfhe_serve_batches_total"); batches > 0 {
		out.set("serve.batch_size_mean", delta("abcfhe_serve_batched_requests_total")/batches)
	}
	if count := delta("abcfhe_serve_op_latency_seconds_count"); count > 0 {
		serverMS := delta("abcfhe_serve_op_latency_seconds_sum") / count * 1e3
		out.set("serve.server_latency_ms_mean", serverMS)
		// Both means run over every attempt that reached the dispatcher,
		// throttled ones included: the histogram cannot tell them apart.
		attempts := append(durationsOf(spans, spanHTTPOK), durationsOf(spans, spanHTTPRetry)...)
		out.set("serve.http_overhead_ms", mean(attempts)-serverMS)
	}
}

func (s *serveRunner) probes(out metricSet) {
	p := s.spec.MustBuild()
	defer p.Close()
	kernelProbes(p, out)

	// Frame codec at the request shape that dominates bytes: two
	// full-depth ciphertexts (the mul body).
	msg := s.rng.fork(5).message(s.owners[0].Slots())
	ct, err := s.devices[0][0].EncodeEncrypt(msg)
	if err != nil {
		return
	}
	blob, err := s.devices[0][0].SerializeCiphertext(ct)
	if err != nil {
		return
	}
	out.set("serve.frames_encode_ms", ms(minOf(9, func() { serve.EncodeFrames(blob, blob) })))
	body := serve.EncodeFrames(blob, blob)
	out.set("serve.frames_decode_ms", ms(minOf(9, func() {
		if _, err := serve.ReadFrames(bytes.NewReader(body), 2, int64(len(blob))); err != nil {
			panic(err)
		}
	})))
}

func (s *serveRunner) close() {
	if s.ts != nil {
		s.hc.CloseIdleConnections()
		s.ts.Close()
	}
	if s.svc != nil {
		s.svc.Close() // the spool dir is the harness's temp dir; the caller removes it
	}
	for _, o := range s.owners {
		if o != nil {
			o.Close()
		}
	}
	for _, ds := range s.devices {
		for _, d := range ds {
			if d != nil {
				d.Close()
			}
		}
	}
}
