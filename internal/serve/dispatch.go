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

// request is one admitted operation. done is buffered so a worker never
// blocks on a handler whose client already disconnected.
type request struct {
	op        string
	hash      string // content hash of the session's key blob
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
// hash of its evaluation-key blob and its parameter set's engine.
// Nothing in it changes after registration.
type session struct {
	id      string
	hash    string
	sp      *specServer
	created time.Time
}

// dispatcher owns the bounded worker pool and the global in-flight
// bound. Each request is its own unit of work: one worker, one cache
// pin, whatever session it belongs to. The key cache alone decides
// what stays resident.
type dispatcher struct {
	cache    *KeyCache
	m        *metrics
	clock    Clock
	max      int64
	inflight atomic.Int64
	work     chan *request
	wg       sync.WaitGroup
}

func newDispatcher(cache *KeyCache, m *metrics, clock Clock, maxInflight, workers int) *dispatcher {
	d := &dispatcher{
		cache: cache,
		m:     m,
		clock: clock,
		max:   int64(maxInflight),
		// A request is in work only while inflight counts it, so
		// maxInflight slots mean the send in enqueue never blocks.
		work: make(chan *request, maxInflight),
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
func (d *dispatcher) enqueue(req *request) error {
	if d.inflight.Add(1) > d.max {
		d.inflight.Add(-1)
		d.m.throttle()
		return ErrOverloaded
	}
	d.work <- req
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
	for r := range d.work {
		res := d.serve(r)
		// Latency is enqueue→completion: queue wait is part of what the
		// client experienced, and what capacity planning needs.
		d.m.observe(r.op, d.clock().Sub(r.enqueued), res.err)
		r.done <- res
		d.inflight.Add(-1)
	}
}

// serve pins the request's keys (when it needs them) for exactly the
// duration of its run. A session unregistered while the request waited
// fails Acquire with ErrUnknownSession.
func (d *dispatcher) serve(r *request) result {
	if err := r.ctx.Err(); err != nil {
		return result{err: err} // client gone; don't burn CPU on it
	}
	var keys *abcfhe.EvaluationKeys
	if r.needsKeys {
		k, release, err := d.cache.Acquire(r.hash)
		if err != nil {
			return result{err: err}
		}
		defer release()
		keys = k
	}
	return d.runOne(r, keys)
}

// runOne is the seam every request's compute enters through. The scheme
// layers panic on states they consider impossible and lanes re-raises a
// lane's panic on its caller, i.e. here, on a bare worker goroutine — so
// a panic is turned into this request's error (HTTP 500), counted, and
// logged with its stack; the worker and the key release carry on.
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
