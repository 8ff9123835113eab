// Package lanes is the software analogue of ABC-FHE's parallel NTT-lane
// (PNL) array: a shared, sized worker pool that executes per-limb kernels
// concurrently. The paper scales client-side CKKS by streaming independent
// RNS limbs through p hardware lanes (Fig. 5b sweeps p); this package does
// the same with goroutines, so internal/ring can dispatch every limb-wise
// operation across however many "lanes" the host offers.
//
// Determinism contract: an Engine only changes *where* a task index runs,
// never what it computes or in what order results land — tasks write to
// disjoint outputs keyed by their index. Callers must therefore never
// split a sequential PRNG sample stream across tasks; sampling code draws
// the stream serially and parallelizes only the per-limb expansion (see
// ring.sharedSigned). Under that rule the same seed yields bit-identical
// results at any worker count, which ring.TestLaneEngineDeterminism asserts.
package lanes

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Engine is a fixed-size worker pool. The zero of workers is resolved to
// GOMAXPROCS at construction. Engines are safe for concurrent use and for
// nested Run calls (the caller always participates, so a busy pool
// degrades to inline execution instead of deadlocking).
type Engine struct {
	workers   int
	jobs      chan *job // buffered; nil when workers == 1
	closeOnce sync.Once
}

// job is one Run invocation: a task body plus a work-stealing cursor.
type job struct {
	fn    func(int)
	n     int64
	next  atomic.Int64
	wg    sync.WaitGroup
	panic atomic.Pointer[TaskPanic]
}

// TaskPanic is what Run re-panics with when a task panicked on a pooled
// lane: it carries the original value (for recover-based inspection) and
// the panicking lane's stack (the caller's own trace only shows Run).
type TaskPanic struct {
	Value any
	Stack []byte
}

func (t *TaskPanic) Error() string {
	return fmt.Sprintf("lanes: task panic: %v\n%s", t.Value, t.Stack)
}

// New builds an engine with n workers; n <= 0 selects GOMAXPROCS. One
// lane is the caller itself, so n-1 pool goroutines are spawned. They
// persist until Close.
func New(n int) *Engine {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: n}
	if n > 1 {
		// The buffer lets Run hand work to workers that are momentarily
		// between jobs; a stale job drained later is a no-op (cursor
		// exhausted), so over-offering is harmless.
		e.jobs = make(chan *job, n-1)
		for i := 0; i < n-1; i++ {
			go worker(e.jobs)
		}
	}
	return e
}

var (
	defaultOnce sync.Once
	defaultEng  *Engine
)

// Default returns the process-wide shared engine, sized GOMAXPROCS. It is
// never closed; rings use it unless given a dedicated engine.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEng = New(0) })
	return defaultEng
}

// Workers reports the lane count (including the caller's lane).
func (e *Engine) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// Close releases the pool goroutines. Only call on engines created with
// New, with no Run in flight; the engine must not be used afterwards.
// Close is idempotent and safe to call from multiple goroutines — service
// teardown paths (a signal handler racing a deferred cleanup) reach it
// more than once. Closing Default is forbidden.
func (e *Engine) Close() {
	if e == defaultEng {
		panic("lanes: cannot close the default engine")
	}
	e.closeOnce.Do(func() {
		if e.jobs != nil {
			close(e.jobs)
		}
	})
}

func worker(jobs <-chan *job) {
	for j := range jobs {
		j.run()
	}
}

// run pulls task indices off the shared cursor until none remain.
func (j *job) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.exec(int(i))
	}
}

// exec runs one task, converting a panic into a recorded failure so the
// pool never deadlocks; Run re-panics it on the caller's goroutine.
func (j *job) exec(i int) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			j.panic.CompareAndSwap(nil, &TaskPanic{Value: r, Stack: debug.Stack()})
		}
	}()
	j.fn(i)
}

// Run executes fn(0) … fn(n-1) across the engine's lanes and returns when
// all have completed. Tasks must be independent and write only to outputs
// owned by their index. The calling goroutine always executes tasks too,
// so Run(n, fn) with a 1-worker engine is exactly the serial loop.
func (e *Engine) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if e == nil || e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: int64(n)}
	j.wg.Add(n)
	helpers := e.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
offer:
	for i := 0; i < helpers; i++ {
		select {
		case e.jobs <- j:
		default:
			break offer // pool saturated; caller absorbs the rest
		}
	}
	j.run()
	j.wg.Wait()
	if p := j.panic.Load(); p != nil {
		panic(p)
	}
}

// chunkOversubscribe is how many chunks RunGroupChunks carves per worker.
// Chunks are claimed through Run's work-stealing cursor, so a worker
// that finishes early (or joins late because the pool was busy) picks up
// the tail another lane would otherwise idle through — the CRT-combine
// tails that motivated this are exactly that shape. 4 keeps per-chunk
// dispatch overhead negligible while bounding any single straggler to
// ~1/(4·Workers) of the range.
const chunkOversubscribe = 4

// RunChunks splits [0, n) into contiguous chunks and runs fn(lo, hi) for
// each — the shape coefficient-indexed kernels (encode's RNS expansion,
// decode's CRT combine, ModUp base conversion) want, where per-index
// dispatch would be all overhead. It is RunGroupChunks with one group.
func (e *Engine) RunChunks(n int, fn func(lo, hi int)) {
	e.RunGroupChunks(1, n, func(_, lo, hi int) { fn(lo, hi) })
}

// RunGroupChunks runs fn(g, lo, hi) for every group g < groups and every
// contiguous chunk [lo, hi) of [0, n), as one dispatch — the key switch's
// per-group source reductions. It carves chunkOversubscribe chunks per
// worker (capped at n) and lets Run's cursor balance them, so uneven
// per-chunk cost no longer pins the whole call to the slowest fixed
// assignment. Chunk boundaries are an execution detail: fn must compute
// per-index results that do not depend on the partition (every caller
// here does — disjoint output indices, pure per-coefficient arithmetic).
func (e *Engine) RunGroupChunks(groups, n int, fn func(g, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := e.Workers()
	if chunks > 1 {
		chunks *= chunkOversubscribe
	}
	chunks = min(chunks, n)
	if chunks == 1 {
		for g := 0; g < groups; g++ {
			fn(g, 0, n)
		}
		return
	}
	size := (n + chunks - 1) / chunks
	e.Run(groups*chunks, func(t int) {
		lo := (t % chunks) * size
		if hi := min(lo+size, n); lo < hi {
			fn(t/chunks, lo, hi)
		}
	})
}
