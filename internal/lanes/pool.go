// Pooled scratch memory. ABC-FHE keeps its working set on chip in a few
// KB of lane-local SRAM instead of allocating per operation (paper §IV-B);
// the software analogue is an allocator for the polynomial scratch the
// CKKS hot paths churn through. Matrices are pooled per ring degree (the
// column count), not per (limbs, degree) shape: a request for fewer rows
// reslices a larger idle slab, so a computation walking down the modulus
// chain recycles one working set instead of keeping one per limb count.
package lanes

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// matrixPools maps a column count to its *degreePool.
var matrixPools sync.Map

// poolFor returns pools[key], creating it on first use. Load comes first:
// LoadOrStore alone would build (and discard) a new value on every call.
func poolFor[K comparable, V any](pools *sync.Map, key K) *V {
	pl, ok := pools.Load(key)
	if !ok {
		pl, _ = pools.LoadOrStore(key, new(V))
	}
	return pl.(*V)
}

// degreePool holds the idle matrices of one column count. Like a
// sync.Pool it lets the collector have what sits idle: after each garbage
// collection every idle slab is dropped (trimPools), so it is freed by the
// next one, and a working set that is no longer used is gone after two
// cycles.
type degreePool struct {
	mu   sync.Mutex
	idle []*Matrix
}

// take removes and returns the idle matrix with the fewest rows among
// those with at least rows rows. When no slab is large enough it returns
// nil and the caller allocates one of the requested size; the smaller
// idle slabs stay for smaller requests until the collector trims them.
// (Dropping them on the spot churns: results that leave the pool on a
// larger slab than they need make the next call reallocate what was
// dropped.)
func (p *degreePool) take(rows int) *Matrix {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, m := range p.idle {
		if len(m.all) >= rows && (best < 0 || len(m.all) < len(p.idle[best].all)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	m, n := p.idle[best], len(p.idle)-1
	p.idle[best], p.idle[n] = p.idle[n], nil // the last entry fills the gap
	p.idle = p.idle[:n]
	idleBytes.Add(-m.bytes())
	return m
}

func (p *degreePool) put(m *Matrix) {
	p.mu.Lock()
	p.idle = append(p.idle, m)
	p.mu.Unlock()
	idleBytes.Add(m.bytes())
}

// trimPools drops every idle slab. It runs once per garbage collection
// (armTrim).
func trimPools() {
	matrixPools.Range(func(_, v any) bool {
		p := v.(*degreePool)
		p.mu.Lock()
		var dropped int64
		for _, m := range p.idle {
			dropped += m.bytes()
		}
		clear(p.idle)
		p.idle = p.idle[:0]
		p.mu.Unlock()
		idleBytes.Add(-dropped)
		return true
	})
}

// gcTick is a finalizer carrier: 16 bytes, so the tiny allocator never
// packs it beside a live object (which would keep it from being finalized).
type gcTick [16]byte

// armTrim schedules trimPools after the next garbage collection and
// re-arms itself from there.
func armTrim() {
	runtime.SetFinalizer(new(gcTick), func(*gcTick) {
		trimPools()
		armTrim()
	})
}

func init() { armTrim() }

// Pool counters, in bytes of matrix slabs: idle (pooled, not handed out),
// outstanding (handed out by GetMatrix and not yet returned) and the
// outstanding high-water mark. A slab that leaves with a result its
// holder never returns stays outstanding. Reading the counters is the
// only cost beyond one atomic add per Get and Put.
var idleBytes, outBytes, outHigh atomic.Int64

// PoolStats is a snapshot of the matrix pool counters.
type PoolStats struct {
	IdleBytes        int64 // slabs pooled and not handed out
	OutstandingBytes int64 // slabs handed out and not yet returned
	HighWaterBytes   int64 // the most OutstandingBytes has been since ResetHighWater
}

// Stats reads the matrix pool counters.
func Stats() PoolStats {
	return PoolStats{IdleBytes: idleBytes.Load(), OutstandingBytes: outBytes.Load(), HighWaterBytes: outHigh.Load()}
}

// ResetHighWater restarts the high-water mark from the bytes outstanding
// now.
func ResetHighWater() { outHigh.Store(outBytes.Load()) }

// Matrix is a pooled rows×cols uint64 matrix over one contiguous backing
// slab — the storage layout of an RNS polynomial (one row per limb). The
// slab may hold more rows than Rows shows.
type Matrix struct {
	Rows    [][]uint64
	all     [][]uint64 // every row of the slab; Rows is a prefix
	backing []uint64
	cols    int
}

func (m *Matrix) bytes() int64 { return int64(len(m.backing)) * 8 }

// GetMatrix returns a pooled rows×cols matrix: rows rows of exactly cols
// words each, from an idle slab of the same column count with at least
// rows rows when there is one. Contents are NOT cleared; call Zero when
// the caller needs the all-zero polynomial.
func GetMatrix(rows, cols int) *Matrix {
	m := poolFor[int, degreePool](&matrixPools, cols).take(rows)
	if m == nil {
		backing := make([]uint64, rows*cols)
		m = &Matrix{backing: backing, cols: cols, all: make([][]uint64, rows)}
		for i := range m.all {
			m.all[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
		}
	}
	m.Rows = m.all[:rows:rows]
	o := outBytes.Add(m.bytes())
	for h := outHigh.Load(); o > h; h = outHigh.Load() {
		if outHigh.CompareAndSwap(h, o) {
			break
		}
	}
	return m
}

// PutMatrix returns m to its degree's pool. The caller must not retain
// any reference to m or its rows afterwards.
func PutMatrix(m *Matrix) {
	if m == nil {
		return
	}
	if scribbling {
		scribble(m.backing)
	}
	outBytes.Add(-m.bytes())
	poolFor[int, degreePool](&matrixPools, m.cols).put(m)
}

var scribbleWord atomic.Uint64

// scribble overwrites a returned backing with words no earlier call
// wrote. It runs only in builds with the scribble tag, as a test aid (`go
// test -tags scribble`): code that reads a pooled word before writing it
// then sees fresh garbage on every run instead of a stale copy of a
// deterministic intermediate, which a byte comparison between runs cannot
// tell apart from a correct result. It covers the whole slab, rows the
// last user did not see included, since the next may.
func scribble(b []uint64) {
	w := scribbleWord.Add(0x9E3779B97F4A7C15)
	for i := range b {
		b[i] = w ^ uint64(i)
	}
}

// Zero clears the matrix's rows (one memclr over their part of the slab).
func (m *Matrix) Zero() {
	clear(m.backing[:len(m.Rows)*m.cols])
}

// Flat scratch slabs ----------------------------------------------------

// SlabPool is a length-keyed recycler of []T scratch slabs: Get returns a
// slab of exactly the requested length with unspecified contents (callers
// overwrite), Put recycles it. The zero value is ready to use. Packages
// with their own element types (e.g. fftfp's complex slots) declare their
// own instance instead of copying the pattern.
//
// A sync.Pool holds pointers, so a pooled slab travels in a *[]T box; Get
// empties the box into boxes and Put refills one from there, so in steady
// state neither allocates.
type SlabPool[T any] struct {
	pools sync.Map  // int → *sync.Pool of *[]T
	boxes sync.Pool // emptied *[]T
}

// Get returns a pooled []T of exactly length n, contents unspecified.
func (p *SlabPool[T]) Get(n int) []T {
	box, ok := poolFor[int, sync.Pool](&p.pools, n).Get().(*[]T)
	if !ok {
		return make([]T, n)
	}
	s := *box
	*box = nil
	p.boxes.Put(box)
	return s
}

// Put recycles a slab obtained from Get. nil is a no-op.
func (p *SlabPool[T]) Put(s []T) {
	if s == nil {
		return
	}
	box, ok := p.boxes.Get().(*[]T)
	if !ok {
		box = new([]T)
	}
	*box = s
	poolFor[int, sync.Pool](&p.pools, len(s)).Put(box)
}

var (
	uintSlabs  SlabPool[uint64]
	floatSlabs SlabPool[float64]
)

// GetSlab returns a pooled []uint64 of exactly length n, contents
// unspecified (callers overwrite).
func GetSlab(n int) []uint64 { return uintSlabs.Get(n) }

// PutSlab returns a slab obtained from GetSlab.
func PutSlab(s []uint64) { uintSlabs.Put(s) }

// GetFloatSlab returns a pooled []float64 of exactly length n, contents
// unspecified (callers overwrite) — the coefficient scratch of decode's
// Combine-CRT stage.
func GetFloatSlab(n int) []float64 { return floatSlabs.Get(n) }

// PutFloatSlab returns a slab obtained from GetFloatSlab.
func PutFloatSlab(s []float64) { floatSlabs.Put(s) }
