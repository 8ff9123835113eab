// Pooled scratch memory. ABC-FHE keeps its working set on chip in a few
// KB of lane-local SRAM instead of allocating per operation (paper §IV-B);
// the software analogue is a sync.Pool-backed allocator for the polynomial
// scratch the CKKS hot paths churn through, keyed by shape so every (N,
// limbs) configuration recycles its own buffers.
package lanes

import (
	"sync"
	"sync/atomic"
)

// shape keys a matrix pool: rows = RNS limbs, cols = ring degree N.
type shape struct{ rows, cols int }

var matrixPools sync.Map // shape → *sync.Pool of *Matrix

// poolFor returns pools[key]. Load comes first: LoadOrStore alone would
// build (and discard) a sync.Pool on every call.
func poolFor[K comparable](pools *sync.Map, key K) *sync.Pool {
	pl, ok := pools.Load(key)
	if !ok {
		pl, _ = pools.LoadOrStore(key, &sync.Pool{})
	}
	return pl.(*sync.Pool)
}

// Matrix is a pooled rows×cols uint64 matrix over one contiguous backing
// slab — the storage layout of an RNS polynomial (one row per limb).
type Matrix struct {
	Rows    [][]uint64
	backing []uint64
	key     shape
}

// GetMatrix returns a pooled rows×cols matrix. Contents are NOT cleared;
// call Zero when the caller needs the all-zero polynomial.
func GetMatrix(rows, cols int) *Matrix {
	key := shape{rows, cols}
	if m, ok := poolFor(&matrixPools, key).Get().(*Matrix); ok {
		return m
	}
	backing := make([]uint64, rows*cols)
	m := &Matrix{backing: backing, key: key, Rows: make([][]uint64, rows)}
	for i := range m.Rows {
		m.Rows[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// PutMatrix returns m to its shape's pool. The caller must not retain any
// reference to m or its rows afterwards.
func PutMatrix(m *Matrix) {
	if m == nil {
		return
	}
	if scribbling {
		scribble(m.backing)
	}
	poolFor(&matrixPools, m.key).Put(m)
}

var scribbleWord atomic.Uint64

// scribble overwrites a returned backing with words no earlier call
// wrote. It runs only in builds with the scribble tag, as a test aid (`go
// test -tags scribble`): code that reads a pooled word before writing it
// then sees fresh garbage on every run instead of a stale copy of a
// deterministic intermediate, which a byte comparison between runs cannot
// tell apart from a correct result.
func scribble(b []uint64) {
	w := scribbleWord.Add(0x9E3779B97F4A7C15)
	for i := range b {
		b[i] = w ^ uint64(i)
	}
}

// Zero clears the whole matrix (single memclr over the backing slab).
func (m *Matrix) Zero() {
	clear(m.backing)
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
	box, ok := poolFor(&p.pools, n).Get().(*[]T)
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
	poolFor(&p.pools, len(s)).Put(box)
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
