package serve

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	abcfhe "repro"
	"repro/internal/evalop"
)

// request is one queued operation. done is buffered so a worker never
// blocks on a handler whose client already disconnected.
type request struct {
	op        string
	needsKeys bool
	ctx       context.Context
	run       evalop.Run // against the session's keys (nil for key-free ops)
	done      chan result
	enqueued  time.Time
}

type result struct {
	parts [][]byte
	err   error
}

// session is one registered client stream: a stable id, the content
// hash of its evaluation-key blob, and a queue the dispatcher drains in
// batches. All requests queued on one session share a key hash, so a
// batch pins the cache entry once however many ops it carries.
type session struct {
	id      string
	hash    string
	sp      *specServer
	created time.Time

	mu      sync.Mutex
	queue   []*request
	running bool // a worker owns this session's queue right now
	closed  bool
}

func (s *session) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// dispatcher owns the bounded worker pool and the global in-flight
// bound. Same-session requests coalesce: a session enters the work
// channel at most once, and the owning worker drains whatever
// accumulated — one cache pin, one metrics batch — then re-checks for
// arrivals before handing the session back.
type dispatcher struct {
	cache    *KeyCache
	m        *metrics
	clock    Clock
	max      int64
	inflight atomic.Int64
	work     chan *session
	wg       sync.WaitGroup
}

func newDispatcher(cache *KeyCache, m *metrics, clock Clock, maxInflight, workers int) *dispatcher {
	d := &dispatcher{
		cache: cache,
		m:     m,
		clock: clock,
		max:   int64(maxInflight),
		// A session sits in the channel only while it has ≥1 in-flight
		// request, and each session appears at most once (the running
		// flag), so maxInflight slots mean the send in enqueue can never
		// block; +workers is slack for the drain handoff.
		work: make(chan *session, maxInflight+workers),
	}
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d
}

// enqueue admits a request or reports backpressure. The in-flight
// counter spans queued AND executing requests: admission control is a
// bound on work the server has accepted, not on channel capacity.
func (d *dispatcher) enqueue(s *session, req *request) error {
	if d.inflight.Add(1) > d.max {
		d.inflight.Add(-1)
		d.m.throttle()
		return ErrOverloaded
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		d.inflight.Add(-1)
		return ErrUnknownSession
	}
	s.queue = append(s.queue, req)
	kick := !s.running
	if kick {
		s.running = true
	}
	s.mu.Unlock()
	if kick {
		d.work <- s
	}
	return nil
}

// close stops the workers. Only call once every producer is done — the
// service calls it after the HTTP server has fully shut down, so no
// handler can send on work again.
func (d *dispatcher) close() {
	close(d.work)
	d.wg.Wait()
}

func (d *dispatcher) worker() {
	defer d.wg.Done()
	for s := range d.work {
		d.drainSession(s)
	}
}

// drainSession batches until the session's queue is empty, then clears
// running under the same lock that observes emptiness — an enqueue
// racing this either sees running=true (no double dispatch) or finds
// the flag cleared and kicks the session itself.
func (d *dispatcher) drainSession(s *session) {
	for {
		s.mu.Lock()
		batch := s.queue
		s.queue = nil
		if len(batch) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		d.runBatch(s, batch)
	}
}

// runBatch acquires the session's keys once (when any request needs
// them) and executes the batch in arrival order. Key-acquisition
// failures fail only the key-needing requests; key-free ops (expand,
// once routed here) still run.
func (d *dispatcher) runBatch(s *session, batch []*request) {
	d.m.batch(len(batch))
	var keys *abcfhe.EvaluationKeys
	var keyErr error
	var release func()
	for _, r := range batch {
		if r.needsKeys {
			keys, release, keyErr = d.cache.Acquire(s.hash)
			break
		}
	}
	for _, r := range batch {
		var res result
		switch {
		case r.ctx.Err() != nil:
			res = result{err: r.ctx.Err()} // client gone; don't burn CPU on it
		case r.needsKeys && keyErr != nil:
			res = result{err: keyErr}
		default:
			res = d.runOne(r, keys)
		}
		// Latency is enqueue→completion: queue wait is part of what the
		// client experienced, and what capacity planning needs.
		d.m.observe(r.op, d.clock().Sub(r.enqueued), res.err)
		r.done <- res
		d.inflight.Add(-1)
	}
	if release != nil {
		release()
	}
}

// runOne is the seam every request's compute enters through. The scheme
// layers panic on states they consider impossible and lanes re-raises a
// lane's panic on its caller, i.e. here, on a bare worker goroutine — so
// a panic is turned into this request's error (HTTP 500), counted, and
// logged with its stack; the worker, the rest of the batch and the key
// release carry on.
func (d *dispatcher) runOne(r *request, keys *abcfhe.EvaluationKeys) (res result) {
	defer func() {
		if p := recover(); p != nil {
			d.m.panics.Add(1)
			log.Printf("serve: panic in op %s: %v\n%s", r.op, p, debug.Stack())
			res = result{err: fmt.Errorf("serve: internal error in op %s: %v", r.op, p)}
		}
	}()
	_, parts, err := r.run(keys)
	return result{parts: parts, err: err}
}
