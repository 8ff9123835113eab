package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBounds are the latency histogram's bucket upper bounds in seconds
// (log-spaced 100µs … 10s; +Inf is implicit). FHE op latencies on CPU
// span ~ms (Test preset rotate) to ~s (PN15 linear transforms), so the
// range covers both with ~2.5× resolution.
var histBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type histogram struct {
	count   uint64
	sum     float64 // seconds
	buckets [len(histBounds)]uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	h.count++
	h.sum += s
	for i, b := range histBounds {
		if s <= b {
			h.buckets[i]++
		}
	}
}

type opMetrics struct {
	ok   uint64
	errs uint64
	hist histogram // enqueue→response, errors included (they queued too)
}

// metrics is the service's instrument panel: per-op counters and
// latency histograms, backpressure and panic counters, and byte
// traffic. Cache counters live in KeyCache; gauges (queue depth,
// sessions) are sampled at scrape time by the service.
type metrics struct {
	mu             sync.Mutex
	ops            map[string]*opMetrics
	throttled      uint64
	panics         atomic.Uint64 // run panics turned into 500s (dispatcher.runOne)
	sessionsOpened uint64
	sessionsClosed uint64
	bytesIn        uint64
	bytesOut       uint64
}

func newMetrics() *metrics {
	return &metrics{ops: make(map[string]*opMetrics)}
}

func (m *metrics) observe(op string, d time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	om := m.ops[op]
	if om == nil {
		om = &opMetrics{}
		m.ops[op] = om
	}
	if err != nil {
		om.errs++
	} else {
		om.ok++
	}
	om.hist.observe(d)
}

func (m *metrics) throttle() {
	m.mu.Lock()
	m.throttled++
	m.mu.Unlock()
}

func (m *metrics) addTraffic(in, out int) {
	m.mu.Lock()
	m.bytesIn += uint64(in)
	m.bytesOut += uint64(out)
	m.mu.Unlock()
}

func (m *metrics) sessionOpened() {
	m.mu.Lock()
	m.sessionsOpened++
	m.mu.Unlock()
}

func (m *metrics) sessionClosed() {
	m.mu.Lock()
	m.sessionsClosed++
	m.mu.Unlock()
}

// gauges are scrape-time samples the service computes outside metrics.
type gauges struct {
	inflight   int64
	queueDepth int64
	sessions   int
	specs      int
}

// writeTo renders the Prometheus-style text exposition. Ops are sorted
// so output is deterministic (tests grep it; diffs stay readable).
func (m *metrics) writeTo(w io.Writer, cs CacheStats, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(m.ops))
	for name := range m.ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		om := m.ops[name]
		fmt.Fprintf(w, "abcfhe_serve_op_requests_total{op=%q,outcome=\"ok\"} %d\n", name, om.ok)
		fmt.Fprintf(w, "abcfhe_serve_op_requests_total{op=%q,outcome=\"error\"} %d\n", name, om.errs)
		// observe already fills buckets cumulatively (every bound ≥ the
		// sample is bumped), so these print as-is.
		for i, b := range histBounds {
			fmt.Fprintf(w, "abcfhe_serve_op_latency_seconds_bucket{op=%q,le=\"%g\"} %d\n", name, b, om.hist.buckets[i])
		}
		fmt.Fprintf(w, "abcfhe_serve_op_latency_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", name, om.hist.count)
		fmt.Fprintf(w, "abcfhe_serve_op_latency_seconds_sum{op=%q} %g\n", name, om.hist.sum)
		fmt.Fprintf(w, "abcfhe_serve_op_latency_seconds_count{op=%q} %d\n", name, om.hist.count)
	}

	fmt.Fprintf(w, "abcfhe_serve_throttled_total %d\n", m.throttled)
	fmt.Fprintf(w, "abcfhe_serve_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "abcfhe_serve_sessions_opened_total %d\n", m.sessionsOpened)
	fmt.Fprintf(w, "abcfhe_serve_sessions_closed_total %d\n", m.sessionsClosed)
	fmt.Fprintf(w, "abcfhe_serve_request_bytes_total %d\n", m.bytesIn)
	fmt.Fprintf(w, "abcfhe_serve_response_bytes_total %d\n", m.bytesOut)

	fmt.Fprintf(w, "abcfhe_serve_inflight %d\n", g.inflight)
	fmt.Fprintf(w, "abcfhe_serve_queue_depth %d\n", g.queueDepth)
	fmt.Fprintf(w, "abcfhe_serve_sessions %d\n", g.sessions)
	fmt.Fprintf(w, "abcfhe_serve_param_sets %d\n", g.specs)

	fmt.Fprintf(w, "abcfhe_serve_cache_budget_bytes %d\n", cs.Budget)
	fmt.Fprintf(w, "abcfhe_serve_cache_resident_bytes %d\n", cs.ResidentBytes)
	fmt.Fprintf(w, "abcfhe_serve_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "abcfhe_serve_cache_resident_entries %d\n", cs.ResidentEntries)
	fmt.Fprintf(w, "abcfhe_serve_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "abcfhe_serve_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "abcfhe_serve_cache_reloads_total %d\n", cs.Reloads)
	fmt.Fprintf(w, "abcfhe_serve_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "abcfhe_serve_cache_admission_rejects_total %d\n", cs.AdmissionRejects)
	fmt.Fprintf(w, "abcfhe_serve_cache_pressure_rejects_total %d\n", cs.PressureRejects)
}
