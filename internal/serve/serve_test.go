package serve

// End-to-end tests of the HTTP service: every eval endpoint must return
// bytes identical to a direct in-process Server call on the same inputs
// and keys (FHE evaluation here is deterministic — any drift is silent
// corruption), the key cache must evict and transparently reload under
// a tight byte budget without changing results, and overload must
// surface as 429 + Retry-After rather than timeouts or panics.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	abcfhe "repro"
	"repro/internal/evalop"
)

func mustMsgs(t *testing.T, slots, n int) [][]complex128 {
	t.Helper()
	msgs := make([][]complex128, n)
	for j := range msgs {
		m := make([]complex128, slots)
		for i := range m {
			m[i] = complex(float64((i+3*j)%17)/17-0.5, float64((i+5*j)%13)/13-0.5)
		}
		msgs[j] = m
	}
	return msgs
}

// wordBlob re-encodes a packed ciphertext blob in the retired 8-byte word
// encoding: the same header with form byte 0, then each 44-bit residue of
// the little-endian bit stream as a little-endian uint64.
func wordBlob(packed []byte) []byte {
	const header, width = 17, 44
	out := append([]byte(nil), packed[:header]...)
	out[5] = 0
	body := packed[header:]
	for k := 0; k < len(body)*8/width; k++ {
		var v uint64
		for b := 0; b < width; b++ {
			bit := k*width + b
			v |= uint64(body[bit/8]>>(bit%8)&1) << b
		}
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

type testHarness struct {
	t      *testing.T
	ts     *httptest.Server
	client *http.Client
}

func (h *testHarness) register(evk []byte) sessionResponse {
	h.t.Helper()
	resp, err := h.client.Post(h.ts.URL+"/v1/sessions", "application/octet-stream", bytes.NewReader(evk))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		h.t.Fatalf("register: HTTP %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		h.t.Fatal(err)
	}
	return sr
}

// eval posts one framed request and returns status, response parts (on
// 200), and headers.
func (h *testHarness) eval(sess, op, query string, parts ...[]byte) (int, [][]byte, http.Header) {
	h.t.Helper()
	url := h.ts.URL + "/v1/eval/" + op + "?session=" + sess + query
	resp, err := h.client.Post(url, ContentTypeFrames, bytes.NewReader(EncodeFrames(parts...)))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, resp.Header
	}
	got, err := ReadFrames(resp.Body, 4, 64<<20)
	if err != nil {
		h.t.Fatalf("eval %s: bad response framing: %v", op, err)
	}
	return resp.StatusCode, got, resp.Header
}

func (h *testHarness) metrics() map[string]float64 {
	h.t.Helper()
	resp, err := h.client.Get(h.ts.URL + "/metrics")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err == nil {
			vals[fields[0]] = v
		}
	}
	return vals
}

func newTestHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &testHarness{t: t, ts: ts, client: ts.Client()}
}

// TestServeEndToEndByteIdentity drives every eval endpoint through HTTP
// and asserts byte-identical output against direct Server calls.
func TestServeEndToEndByteIdentity(t *testing.T) {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 11, 22)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	steps := append(abcfhe.InnerSumRotations(4), 3)
	steps = append(steps, abcfhe.HomomorphicDFTRotations(owner.Slots(), 1)...)
	evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: steps, Conjugate: true})
	if err != nil {
		t.Fatal(err)
	}

	direct, dkeys, err := abcfhe.NewServerFromEvaluationKeys(evk)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	h := newTestHarness(t, Config{CacheBytes: 4 * int64(len(evk)), MaxInflight: 16, Workers: 2})
	sr := h.register(evk)
	if sr.Slots != owner.Slots() || !sr.Conjugate {
		t.Fatalf("session response %+v does not reflect the blob", sr)
	}

	enc, err := abcfhe.NewEncryptor(pk, 33, 44)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	msgs := mustMsgs(t, enc.Slots(), 2)
	cts, err := enc.EncodeEncryptBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cts[0], cts[1]
	aw, err := enc.SerializeCiphertext(a)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := enc.SerializeCiphertext(b)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := owner.EncodeEncryptCompressed(msgs[0])
	if err != nil {
		t.Fatal(err)
	}

	ser := func(ct *abcfhe.Ciphertext, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := direct.SerializeCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	weightsText := []byte("0.25\n0.5 -0.125\n-1 0.75\n")
	weights := []complex128{0.25, complex(0.5, -0.125), complex(-1, 0.75)}

	// Direct references for the single-output ops.
	want := map[string][][]byte{
		"mul":       {ser(direct.Mul(a, b, dkeys))},
		"rotate":    {ser(direct.Rotate(a, 3, dkeys))},
		"conjugate": {ser(direct.Conjugate(b, dkeys))},
		"innersum":  {ser(direct.InnerSum(a, 4, dkeys))},
		"dot":       {ser(direct.DotPlain(a, weights, dkeys))},
		"expand":    {ser(direct.ExpandCompressedUpload(seeded))},
	}
	dft, err := direct.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: a.Level(), Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	reRef, imRef, err := direct.CoeffsToSlots(a, dft, dkeys)
	if err != nil {
		t.Fatal(err)
	}
	reW, imW := ser(reRef, nil), ser(imRef, nil)
	want["c2s"] = [][]byte{reW, imW}
	want["s2c"] = [][]byte{ser(direct.SlotsToCoeffs(reRef, imRef, dft, dkeys))}
	// Degree 1 is the ladder the Test preset's 4 limbs admit.
	polyText := []byte("0.5\n0.25 -0.125\n")
	pe, err := direct.NewPolyEval([]complex128{0.5, complex(0.25, -0.125)}, -1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want["evalpoly"] = [][]byte{ser(direct.EvalPoly(a, pe, dkeys))}
	em, err := direct.NewEvalMod(abcfhe.EvalModConfig{Degree: 1, Range: 8})
	if err != nil {
		t.Fatal(err)
	}
	want["evalmod"] = [][]byte{ser(direct.EvalMod(b, em, dkeys))}

	requests := map[string]struct {
		query string
		parts [][]byte
	}{
		"mul":       {"", [][]byte{aw, bw}},
		"rotate":    {"&by=3", [][]byte{aw}},
		"conjugate": {"", [][]byte{bw}},
		"innersum":  {"&span=4", [][]byte{aw}},
		"dot":       {"", [][]byte{aw, weightsText}},
		"expand":    {"", [][]byte{seeded}},
		"c2s":       {"&levels=1", [][]byte{aw}},
		"s2c":       {"&levels=1", [][]byte{reW, imW}},
		"evalpoly":  {"&lo=-1&hi=1", [][]byte{aw, polyText}},
		"evalmod":   {"&degree=1&range=8", [][]byte{bw}},
	}
	for op, req := range requests {
		status, got, _ := h.eval(sr.Session, op, req.query, req.parts...)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d", op, status)
		}
		if len(got) != len(want[op]) {
			t.Fatalf("%s: %d response parts, want %d", op, len(got), len(want[op]))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[op][i]) {
				t.Errorf("%s: response part %d differs from direct Server call", op, i)
			}
		}
	}

	// The table is the endpoint list: a row added without a case here
	// would be an endpoint nobody checked against the direct call.
	for _, row := range evalop.All() {
		if _, ok := requests[row.Name]; !ok {
			t.Errorf("table row %q has no byte-identity case", row.Name)
		}
	}

	m := h.metrics()
	if m["abcfhe_serve_cache_hits_total"] == 0 {
		t.Error("metrics: no cache hits recorded after successful evals")
	}
	if m["abcfhe_serve_sessions"] != 1 {
		t.Errorf("metrics: sessions gauge = %v, want 1", m["abcfhe_serve_sessions"])
	}
}

// TestServeEvictionReloadIdentity registers three sessions with three
// distinct key blobs under a budget that holds only two, then round-
// robins key-gated ops across them: the cache must evict and reload
// (visible in /metrics) while every response stays byte-identical to a
// direct call — including the post-reload rounds.
func TestServeEvictionReloadIdentity(t *testing.T) {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}

	rotSteps := []int{1, 2, 4}
	blobs := make([][]byte, len(rotSteps))
	for i, step := range rotSteps {
		if blobs[i], err = owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: []int{step}}); err != nil {
			t.Fatal(err)
		}
	}

	direct, keys0, err := abcfhe.NewServerFromEvaluationKeys(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	refKeys := []*abcfhe.EvaluationKeys{keys0}
	for _, blob := range blobs[1:] {
		k, err := direct.ImportEvaluationKeys(blob)
		if err != nil {
			t.Fatal(err)
		}
		refKeys = append(refKeys, k)
	}

	// Budget: exactly two blobs. Workers=1 keeps at most one request (one
	// pin) in flight, so rotation across three sessions always evicts
	// rather than hitting pressure.
	h := newTestHarness(t, Config{CacheBytes: 2 * int64(len(blobs[0])), MaxInflight: 8, Workers: 1})
	sessions := make([]sessionResponse, len(blobs))
	for i, blob := range blobs {
		sessions[i] = h.register(blob)
	}

	enc, err := abcfhe.NewEncryptor(pk, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	ct, err := enc.EncodeEncrypt(mustMsgs(t, enc.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	ctw, err := enc.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	want := make([][]byte, len(rotSteps))
	for i, step := range rotSteps {
		out, err := direct.Rotate(ct, step, refKeys[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = direct.SerializeCiphertext(out); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i, sess := range sessions {
			status, got, _ := h.eval(sess.Session, "rotate", fmt.Sprintf("&by=%d", rotSteps[i]), ctw)
			if status != http.StatusOK {
				t.Fatalf("round %d session %d: HTTP %d", r, i, status)
			}
			if !bytes.Equal(got[0], want[i]) {
				t.Fatalf("round %d session %d: bytes differ from direct call (post-reload corruption?)", r, i)
			}
		}
	}

	m := h.metrics()
	if m["abcfhe_serve_cache_evictions_total"] == 0 {
		t.Error("no evictions under a 2-of-3 budget")
	}
	if m["abcfhe_serve_cache_reloads_total"] == 0 {
		t.Error("no reloads recorded")
	}
	if m["abcfhe_serve_cache_resident_bytes"] > m["abcfhe_serve_cache_budget_bytes"] {
		t.Errorf("resident bytes %v exceed budget %v", m["abcfhe_serve_cache_resident_bytes"], m["abcfhe_serve_cache_budget_bytes"])
	}
	if m["abcfhe_serve_cache_pressure_rejects_total"] != 0 {
		t.Errorf("unexpected pressure rejects: %v", m["abcfhe_serve_cache_pressure_rejects_total"])
	}
}

// testRequest builds a dispatcher request on key blob hash whose run
// calls enter (when non-nil), waits for block to close, then panics when
// boom is set and returns "ok" otherwise.
func testRequest(hash string, needsKeys, boom bool, enter func(), block <-chan struct{}) *request {
	return &request{
		op: "test", hash: hash, needsKeys: needsKeys, ctx: context.Background(),
		done: make(chan result, 1), enqueued: time.Now(),
		run: func(*abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, [][]byte, error) {
			if enter != nil {
				enter()
			}
			<-block
			if boom {
				panic("ring: impossible state")
			}
			return nil, [][]byte{[]byte("ok")}, nil
		},
	}
}

// status is the HTTP status a handler would write for res.
func status(res result) int {
	if res.err != nil {
		return httpStatus(res.err)
	}
	return http.StatusOK
}

// TestDispatcherBackpressure is the deterministic admission-control
// test: with the single worker blocked inside a request, further
// enqueues fill the in-flight budget exactly and the next one gets
// ErrOverloaded.
func TestDispatcherBackpressure(t *testing.T) {
	m := newMetrics()
	d := newDispatcher(NewKeyCache(1, nil), m, time.Now, 3, 1)
	defer d.close()

	block := make(chan struct{})
	started := make(chan struct{})
	r1 := testRequest("h", false, false, func() { close(started) }, block)
	if err := d.enqueue(r1); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now inside r1
	r2, r3 := testRequest("h", false, false, nil, block), testRequest("h", false, false, nil, block)
	if err := d.enqueue(r2); err != nil {
		t.Fatal(err)
	}
	if err := d.enqueue(r3); err != nil {
		t.Fatal(err)
	}
	if err := d.enqueue(testRequest("h", false, false, nil, block)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4th enqueue: err = %v, want ErrOverloaded", err)
	}

	close(block)
	for i, r := range []*request{r1, r2, r3} {
		if res := <-r.done; res.err != nil {
			t.Fatalf("request %d: %v", i+1, res.err)
		}
	}
	m.mu.Lock()
	throttled := m.throttled
	m.mu.Unlock()
	if throttled != 1 {
		t.Errorf("throttled=%d, want 1", throttled)
	}
	if got := d.inflight.Load(); got != 0 {
		t.Errorf("inflight=%d after drain, want 0", got)
	}
}

// TestDispatcherRunsSameSessionConcurrently: two requests on one
// session's keys occupy two workers at once — each pins the cache entry
// for itself, and neither waits for the other to finish.
func TestDispatcherRunsSameSessionConcurrently(t *testing.T) {
	h := newCacheHarness(t, 10)
	if err := h.register("h", 10, true); err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(h.c, newMetrics(), time.Now, 4, 2)
	defer d.close()

	block := make(chan struct{})
	entered := make(chan struct{}, 2)
	enter := func() { entered <- struct{}{} }
	reqs := []*request{testRequest("h", true, false, enter, block), testRequest("h", true, false, enter, block)}
	for _, r := range reqs {
		if err := d.enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)
	for i := range reqs {
		select {
		case <-entered:
		case <-timeout:
			close(block)
			t.Fatalf("only %d of 2 same-session requests running after 10 s", i)
		}
	}
	close(block)
	for i, r := range reqs {
		if res := <-r.done; res.err != nil {
			t.Errorf("request %d: %v", i+1, res.err)
		}
	}
}

// TestDispatcherUnregisterWhileQueued: a request admitted before its
// session was unregistered, and still queued behind a busy worker when
// that happened, gets 404 instead of running on keys nobody owns. The
// request ahead of it holds the only pin, so the entry is dead rather
// than removed, and goes once that pin is released.
func TestDispatcherUnregisterWhileQueued(t *testing.T) {
	h := newCacheHarness(t, 10)
	if err := h.register("h", 10, true); err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(h.c, newMetrics(), time.Now, 4, 1)
	defer d.close()

	block := make(chan struct{})
	started := make(chan struct{})
	running := testRequest("h", true, false, func() { close(started) }, block)
	queued := testRequest("h", true, false, nil, block)
	for _, r := range []*request{running, queued} {
		if err := d.enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	<-started // the only worker holds running's pin; queued waits
	h.c.Unregister("h")
	close(block)
	if got := status(<-running.done); got != http.StatusOK {
		t.Errorf("running request: status %d, want 200", got)
	}
	res := <-queued.done
	if !errors.Is(res.err, ErrUnknownSession) || status(res) != http.StatusNotFound {
		t.Errorf("queued request: err %v (status %d), want ErrUnknownSession (404)", res.err, status(res))
	}
	if st := h.c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Errorf("dead entry not removed after its last pin: %+v", st)
	}
}

// TestDispatcherRecoversRunPanic: a run that panics (the scheme layers do,
// on states they consider impossible) costs that request a 500 and
// nothing else — the requests queued around it complete, the counter
// moves, its key pin is released, and the worker is still there for
// the session's next request.
func TestDispatcherRecoversRunPanic(t *testing.T) {
	m := newMetrics()
	h := newCacheHarness(t, 10) // room for exactly one size-10 entry
	if err := h.register("h", 10, true); err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(h.c, m, time.Now, 4, 1)
	defer d.close()

	// The single worker takes the requests in order; the panicking one
	// sits between two good ones.
	block := make(chan struct{})
	reqs := []*request{
		testRequest("h", true, false, nil, block),
		testRequest("h", true, true, nil, block),
		testRequest("h", true, false, nil, block),
	}
	for _, r := range reqs {
		if err := d.enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	for i, want := range []int{http.StatusOK, http.StatusInternalServerError, http.StatusOK} {
		res := <-reqs[i].done
		if got := status(res); got != want {
			t.Errorf("request %d: status %d (err %v), want %d", i+1, got, res.err, want)
		}
	}
	if got := m.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}

	// A key-free follow-up still finds the worker. Every request releases
	// its pin before answering, so the one-entry budget can now evict "h"
	// for a newcomer.
	after := testRequest("h", false, false, nil, block)
	if err := d.enqueue(after); err != nil {
		t.Fatal(err)
	}
	if res := <-after.done; res.err != nil {
		t.Errorf("request after the panic: %v", res.err)
	}
	if err := h.register("g", 10, true); err != nil || !h.c.IsResident("g") {
		t.Errorf("keys still pinned after the panicking request (register: %v)", err)
	}
}

// TestServeBackpressureHTTP observes the 429 path end to end: with
// max-inflight 1 and one worker, a request sent while a slow op is
// executing must be rejected with 429 + Retry-After.
func TestServeBackpressureHTTP(t *testing.T) {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	steps := abcfhe.HomomorphicDFTRotations(owner.Slots(), 1)
	evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: steps, Conjugate: true})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHarness(t, Config{CacheBytes: 2 * int64(len(evk)), MaxInflight: 1, Workers: 1})
	sr := h.register(evk)

	enc, err := abcfhe.NewEncryptor(pk, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	ct, err := enc.EncodeEncrypt(mustMsgs(t, enc.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	ctw, err := enc.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	saw429 := false
	for round := 0; round < 20 && !saw429; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // a slow op to occupy the only in-flight slot
			defer wg.Done()
			h.eval(sr.Session, "c2s", "&levels=1", ctw)
		}()
		for i := 0; i < 5 && !saw429; i++ {
			status, _, hdr := h.eval(sr.Session, "rotate", "&by=1", ctw)
			switch status {
			case http.StatusTooManyRequests:
				saw429 = true
				if hdr.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			case http.StatusOK, http.StatusUnprocessableEntity:
				// ok: the slow op finished first (rotate-by-1 needs a key
				// this blob lacks only if DFT steps exclude 1 — accept 422)
			default:
				t.Fatalf("unexpected status %d while probing backpressure", status)
			}
		}
		wg.Wait()
	}
	if !saw429 {
		t.Fatal("never observed a 429 with max-inflight=1 under concurrent load")
	}
	m := h.metrics()
	if m["abcfhe_serve_throttled_total"] == 0 {
		t.Error("throttled_total still zero after an observed 429")
	}
}

// TestServeRegisterRejectsAndLifecycle covers the registration gate
// (malformed, truncated, trailing bytes, admission) and the session
// lifecycle (info, unregister, drain).
func TestServeRegisterRejectsAndLifecycle(t *testing.T) {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 13, 14)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: []int{1}})
	if err != nil {
		t.Fatal(err)
	}

	h := newTestHarness(t, Config{CacheBytes: 2 * int64(len(evk)), MaxInflight: 4, Workers: 1})
	post := func(body []byte) int {
		resp, err := h.client.Post(h.ts.URL+"/v1/sessions", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post([]byte("not a key blob")); got != http.StatusBadRequest {
		t.Errorf("garbage blob: HTTP %d, want 400", got)
	}
	if got := post(evk[:len(evk)-7]); got != http.StatusBadRequest {
		t.Errorf("truncated blob: HTTP %d, want 400", got)
	}
	if got := post(append(append([]byte{}, evk...), 0x00)); got != http.StatusBadRequest {
		t.Errorf("trailing byte: HTTP %d, want 400", got)
	}
	// A gadget tag other than hybrid (0 marked the retired digit gadget)
	// is refused by the header gate, with the payload left unread.
	for _, tag := range []byte{0, 2} {
		forged := append([]byte{}, evk...)
		forged[14] = tag // the gadget byte follows the 14-byte key header
		body := bytes.NewReader(forged)
		rec := httptest.NewRecorder()
		h.ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", body))
		if read := len(forged) - body.Len(); rec.Code != http.StatusBadRequest || read > registerGatePrefix {
			t.Errorf("gadget tag %d: HTTP %d after reading %d of %d bytes, want 400 within the %d-byte gate",
				tag, rec.Code, read, len(forged), registerGatePrefix)
		}
	}

	// Blobs in a retired layout (layout byte 0: coefficient-domain rows;
	// 1: full rows, no mask seed) are refused by the header gate with the
	// remedy named.
	for _, layout := range []byte{0, 1} {
		forged := append([]byte{}, evk...)
		forged[14+4] = layout // the layout byte closes the 5-byte geometry prefix
		rec := httptest.NewRecorder()
		h.ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(forged)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "retired") || !strings.Contains(rec.Body.String(), "re-export") {
			t.Errorf("retired layout %d: HTTP %d %q, want 400 naming the retired layout and re-export", layout, rec.Code, rec.Body.String())
		}
	}

	// Admission: a service whose whole budget is smaller than the blob
	// must reject from the header with 413.
	tiny := newTestHarness(t, Config{CacheBytes: 64, MaxInflight: 4, Workers: 1})
	resp, err := tiny.client.Post(tiny.ts.URL+"/v1/sessions", "application/octet-stream", bytes.NewReader(evk))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized blob: HTTP %d, want 413", resp.StatusCode)
	}
	if tm := tiny.metrics(); tm["abcfhe_serve_cache_admission_rejects_total"] == 0 {
		t.Error("admission reject not counted")
	}

	// Lifecycle: register, info, eval on bad session/op, unregister.
	sr := h.register(evk)
	infoResp, err := h.client.Get(h.ts.URL + "/v1/sessions/" + sr.Session)
	if err != nil {
		t.Fatal(err)
	}
	infoBody, _ := io.ReadAll(infoResp.Body)
	infoResp.Body.Close()
	if infoResp.StatusCode != http.StatusOK || !strings.Contains(string(infoBody), sr.Session) {
		t.Errorf("session info: HTTP %d body %s", infoResp.StatusCode, infoBody)
	}

	if status, _, _ := h.eval("nope", "rotate", "&by=1", []byte("x")); status != http.StatusNotFound {
		t.Errorf("unknown session: HTTP %d, want 404", status)
	}
	if status, _, _ := h.eval(sr.Session, "frobnicate", "", []byte("x")); status != http.StatusBadRequest {
		t.Errorf("unknown op: HTTP %d, want 400", status)
	}
	if status, _, _ := h.eval(sr.Session, "mul", "", []byte("just one part")); status != http.StatusBadRequest {
		t.Errorf("mul with one part: HTTP %d, want 400", status)
	}
	// The one ciphertext wire form: the retired word encoding of a valid
	// ciphertext (65 553 bytes at the Test preset, well inside a frame)
	// and a full ciphertext sent as a compressed upload are both refused.
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := abcfhe.NewEncryptor(pk, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	ct, err := enc.EncodeEncrypt(mustMsgs(t, enc.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	full, err := enc.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, _ := h.eval(sr.Session, "rotate", "&by=1", full); status != http.StatusOK {
		t.Errorf("packed ciphertext: HTTP %d, want 200", status)
	}
	if status, _, _ := h.eval(sr.Session, "rotate", "&by=1", wordBlob(full)); status != http.StatusBadRequest {
		t.Errorf("word-encoded ciphertext: HTTP %d, want 400", status)
	}
	if status, _, _ := h.eval(sr.Session, "expand", "", full); status != http.StatusBadRequest {
		t.Errorf("full ciphertext as a compressed upload: HTTP %d, want 400", status)
	}

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, h.ts.URL+"/v1/sessions/"+id, nil)
		resp, err := h.client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := del(sr.Session); got != http.StatusNoContent {
		t.Errorf("unregister: HTTP %d, want 204", got)
	}
	if got := del(sr.Session); got != http.StatusNotFound {
		t.Errorf("double unregister: HTTP %d, want 404", got)
	}
	if status, _, _ := h.eval(sr.Session, "rotate", "&by=1", []byte("x")); status != http.StatusNotFound {
		t.Errorf("eval after unregister: HTTP %d, want 404", status)
	}
}

// TestServeDrain: after Drain, new sessions get 503 but the already
// registered session keeps evaluating — the cmd layer relies on this to
// let http.Server.Shutdown complete queued work.
func TestServeDrain(t *testing.T) {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 15, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: []int{1}})
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{CacheBytes: 2 * int64(len(evk)), MaxInflight: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Close()
	h := &testHarness{t: t, ts: ts, client: ts.Client()}

	sr := h.register(evk)
	svc.Drain()

	resp, err := h.client.Post(ts.URL+"/v1/sessions", "application/octet-stream", bytes.NewReader(evk))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register while draining: HTTP %d, want 503", resp.StatusCode)
	}

	enc, err := abcfhe.NewEncryptor(pk, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	ct, err := enc.EncodeEncrypt(mustMsgs(t, enc.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	ctw, err := enc.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, _ := h.eval(sr.Session, "rotate", "&by=1", ctw); status != http.StatusOK {
		t.Errorf("eval while draining: HTTP %d, want 200 (queued work must finish)", status)
	}
}
