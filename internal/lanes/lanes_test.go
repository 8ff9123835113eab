package lanes

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		e := New(workers)
		for _, n := range []int{0, 1, 3, 64, 1000} {
			hits := make([]int32, n)
			e.Run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, h)
				}
			}
		}
		if workers > 1 {
			e.Close()
		}
	}
}

func TestNestedRun(t *testing.T) {
	e := New(4)
	defer e.Close()
	var total atomic.Int64
	e.Run(8, func(i int) {
		e.Run(8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested run executed %d tasks, want 64", total.Load())
	}
}

func TestRunChunksCover(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		e := New(workers)
		for _, n := range []int{1, 7, 97, 1024} {
			hits := make([]int32, n)
			e.RunChunks(n, func(lo, hi int) {
				if lo >= hi || hi > n {
					t.Fatalf("bad chunk [%d,%d)", lo, hi)
				}
				for j := lo; j < hi; j++ {
					atomic.AddInt32(&hits[j], 1)
				}
			})
			for j, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, j, h)
				}
			}
		}
		if workers > 1 {
			e.Close()
		}
	}
}

// TestRunChunksOversubscribes: with multiple workers, RunChunks carves
// more chunks than lanes so the work-stealing cursor can rebalance
// stragglers; a single-worker engine keeps the one-call fast path.
func TestRunChunksOversubscribes(t *testing.T) {
	e := New(4)
	defer e.Close()
	var calls atomic.Int32
	e.RunChunks(4096, func(lo, hi int) { calls.Add(1) })
	if got, want := int(calls.Load()), 4*chunkOversubscribe; got != want {
		t.Fatalf("4-worker RunChunks issued %d chunks, want %d", got, want)
	}
	var serial atomic.Int32
	New(1).RunChunks(4096, func(lo, hi int) { serial.Add(1) })
	if serial.Load() != 1 {
		t.Fatalf("1-worker RunChunks issued %d chunks, want 1", serial.Load())
	}
	// Tiny n: never more chunks than indices.
	calls.Store(0)
	e.RunChunks(3, func(lo, hi int) {
		if hi != lo+1 {
			t.Fatalf("n=3 chunk [%d,%d) wider than one index", lo, hi)
		}
		calls.Add(1)
	})
	if calls.Load() != 3 {
		t.Fatalf("n=3 issued %d chunks", calls.Load())
	}
}

func TestBackendIdentities(t *testing.T) {
	if Portable.Name() != "portable" || Portable.Specialized() {
		t.Fatal("portable backend misdescribes itself")
	}
	if Fast.Name() != "fast" || !Fast.Specialized() {
		t.Fatal("fast backend misdescribes itself")
	}
}

// Production has one kernel binding: the default is Fast, and it is the
// zero value, so a ring nobody rebinds runs it.
func TestDefaultBackendRegistered(t *testing.T) {
	var zero Backend
	if DefaultBackend() != Fast || zero != Fast {
		t.Fatalf("DefaultBackend() = %v, zero value %v, want fast", DefaultBackend().Name(), zero.Name())
	}
}

func TestPanicPropagates(t *testing.T) {
	e := New(4)
	defer e.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate to caller")
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("expected *TaskPanic, got %T: %v", r, r)
		}
		if tp.Value != "boom" {
			t.Fatalf("panic lost its payload: %v", tp.Value)
		}
		if !strings.Contains(tp.Error(), "boom") || len(tp.Stack) == 0 {
			t.Fatalf("TaskPanic missing message or stack: %v", tp.Error())
		}
	}()
	e.Run(16, func(i int) {
		if i == 11 {
			panic("boom")
		}
	})
}

func TestDefaultEngine(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must be a singleton")
	}
	if got := Default().Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default engine has %d workers, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	var e *Engine
	if e.Workers() != 1 {
		t.Fatal("nil engine must report one lane")
	}
	ran := 0
	e.Run(3, func(i int) { ran++ }) // nil engine runs inline
	if ran != 3 {
		t.Fatal("nil engine must still execute tasks")
	}
}

func TestMatrixPoolShapes(t *testing.T) {
	m := GetMatrix(3, 8)
	if len(m.Rows) != 3 || len(m.Rows[0]) != 8 {
		t.Fatalf("matrix shape %dx%d", len(m.Rows), len(m.Rows[0]))
	}
	for i := range m.Rows {
		for j := range m.Rows[i] {
			m.Rows[i][j] = 7
		}
	}
	m.Zero()
	for i := range m.Rows {
		for j := range m.Rows[i] {
			if m.Rows[i][j] != 0 {
				t.Fatal("Zero left residue")
			}
		}
	}
	PutMatrix(m)
	// A different shape must never alias the returned buffer's rows.
	m2 := GetMatrix(8, 3)
	if len(m2.Rows) != 8 || len(m2.Rows[0]) != 3 {
		t.Fatalf("matrix shape %dx%d", len(m2.Rows), len(m2.Rows[0]))
	}
	PutMatrix(m2)
}

// TestMatrixScribbleWholeSlab: in a scribble build, returning a matrix
// that shows fewer rows than its slab holds overwrites the whole slab,
// the rows the last user never saw included.
func TestMatrixScribbleWholeSlab(t *testing.T) {
	if !scribbling {
		t.Skip("PutMatrix scribbles only in builds with the scribble tag")
	}
	const cols = 1<<9 + 11 // a degree no other test uses
	m := GetMatrix(5, cols)
	PutMatrix(m)
	m = GetMatrix(2, cols)
	for _, row := range m.all {
		for j := range row {
			row[j] = 42
		}
	}
	PutMatrix(m)
	for i, row := range m.all {
		for j, v := range row {
			if v == 42 {
				t.Fatalf("slab row %d word %d kept its value after a 2-row return", i, j)
			}
		}
	}
}

// TestMatrixScribble: in a scribble build, a matrix that comes back from
// its pool holds none of the words written before it was returned, and
// two returns leave different words; otherwise PutMatrix leaves contents
// alone.
func TestMatrixScribble(t *testing.T) {
	const rows, cols = 2, 1<<10 + 5 // a shape no other test uses
	var seen []uint64
	for k := 0; k < 2; k++ {
		m := GetMatrix(rows, cols)
		for _, row := range m.Rows {
			for j := range row {
				row[j] = 42
			}
		}
		PutMatrix(m)
		for _, row := range m.Rows {
			for j, v := range row {
				if kept := v == 42; kept == scribbling {
					t.Fatalf("return %d, scribbling %v: word %d holds %#x", k, scribbling, j, v)
				}
			}
		}
		seen = append(seen, m.Rows[0][0])
	}
	if scribbling && seen[0] == seen[1] {
		t.Fatalf("two returns left the same word %#x", seen[0])
	}
}

// TestMatrixPoolReslicesByDegree: a request for fewer rows at a degree
// reuses an idle larger slab and sees exactly the rows it asked for, each
// of exactly cols words; a request for more rows than any idle slab holds
// gets a fresh slab.
func TestMatrixPoolReslicesByDegree(t *testing.T) {
	const cols = 1<<9 + 3 // a degree no other test uses
	big := GetMatrix(6, cols)
	PutMatrix(big)
	small := GetMatrix(2, cols)
	if &small.all[0][0] != &big.all[0][0] {
		t.Fatal("a 2-row request did not reuse the idle 6-row slab")
	}
	if len(small.Rows) != 2 || cap(small.Rows) != 2 {
		t.Fatalf("2-row request: %d rows (cap %d)", len(small.Rows), cap(small.Rows))
	}
	for i, row := range small.Rows {
		if len(row) != cols || cap(row) != cols {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(row), cap(row), cols)
		}
	}
	larger := GetMatrix(7, cols)
	if len(larger.Rows) != 7 || len(larger.all) != 7 {
		t.Fatalf("7-row request: %d rows over a %d-row slab", len(larger.Rows), len(larger.all))
	}
	PutMatrix(small)
	PutMatrix(larger)
	// Best fit: the 6-row slab serves a 5-row request, not the 7-row one.
	if m := GetMatrix(5, cols); len(m.all) != 6 {
		t.Fatalf("5-row request took a %d-row slab, want the 6-row one", len(m.all))
	} else {
		PutMatrix(m)
	}
}

// TestMatrixPoolCounters: the counters follow Get and Put exactly in slab
// bytes, the high-water mark holds the peak, and the trim that follows a
// garbage collection drops every idle slab.
func TestMatrixPoolCounters(t *testing.T) {
	const cols = 1<<9 + 7 // a degree no other test uses
	runtime.GC()
	runtime.GC()
	waitTrim(t, 0)
	before := Stats()
	ResetHighWater()
	a, b := GetMatrix(4, cols), GetMatrix(2, cols)
	slab := int64(8 * cols)
	if s := Stats(); s.OutstandingBytes-before.OutstandingBytes != 6*slab || s.HighWaterBytes < before.OutstandingBytes+6*slab {
		t.Fatalf("after two Gets: %+v (before %+v)", s, before)
	}
	PutMatrix(a)
	PutMatrix(b)
	s := Stats()
	if s.OutstandingBytes != before.OutstandingBytes || s.IdleBytes-before.IdleBytes != 6*slab {
		t.Fatalf("after two Puts: %+v (before %+v)", s, before)
	}
	if s.HighWaterBytes != before.OutstandingBytes+6*slab {
		t.Fatalf("high water %d, want %d", s.HighWaterBytes, before.OutstandingBytes+6*slab)
	}
	runtime.GC()
	runtime.GC()
	waitTrim(t, 0)
}

// TestMatrixPoolConcurrent: goroutines sharing a degree pool, with
// collections (and so trims) running beside them, each see their own rows
// and leave the outstanding count where it started.
func TestMatrixPoolConcurrent(t *testing.T) {
	const cols = 1<<9 + 13 // a degree no other test uses
	before := Stats().OutstandingBytes
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				m := GetMatrix(1+(g+i)%5, cols)
				for _, row := range m.Rows {
					row[0], row[cols-1] = uint64(g), uint64(i)
				}
				for _, row := range m.Rows {
					if row[0] != uint64(g) || row[cols-1] != uint64(i) {
						t.Errorf("goroutine %d: a row changed under it", g)
					}
				}
				PutMatrix(m)
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	if got := Stats().OutstandingBytes; got != before {
		t.Fatalf("outstanding bytes %d after every matrix came back, want %d", got, before)
	}
}

// waitTrim waits for the finalizer goroutine to run the trims the last
// collections scheduled, until IdleBytes reads want.
func waitTrim(t *testing.T, want int64) {
	t.Helper()
	for range 200 {
		if Stats().IdleBytes == want {
			return
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("idle bytes %d after collections, want %d", Stats().IdleBytes, want)
}

func TestSlabPool(t *testing.T) {
	s := GetSlab(100)
	if len(s) != 100 {
		t.Fatalf("slab length %d", len(s))
	}
	PutSlab(s)
	s2 := GetSlab(100)
	if len(s2) != 100 {
		t.Fatalf("slab length %d after recycle", len(s2))
	}
	PutSlab(s2)
}

func BenchmarkRunOverhead(b *testing.B) {
	e := New(runtime.GOMAXPROCS(0))
	defer func() {
		if e.Workers() > 1 {
			e.Close()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(24, func(int) {})
	}
}

func TestFloatSlabPool(t *testing.T) {
	s := GetFloatSlab(64)
	if len(s) != 64 {
		t.Fatalf("slab length %d", len(s))
	}
	for i := range s {
		s[i] = float64(i) + 0.5
	}
	PutFloatSlab(s)
	s2 := GetFloatSlab(64)
	if len(s2) != 64 {
		t.Fatalf("recycled slab length %d", len(s2))
	}
	PutFloatSlab(s2)
	if n := GetFloatSlab(32); len(n) != 32 {
		t.Fatalf("distinct size pooled together: len %d", len(n))
	}
	PutFloatSlab(nil) // must be a no-op
}

// TestPoolsSteadyStateAllocFree: once a size class is warm, a Get/Put
// round trip allocates nothing — no fresh sync.Pool per Put, no fresh
// slice-header box per returned slab, no boxed map key.
func TestPoolsSteadyStateAllocFree(t *testing.T) {
	const n = 1 << 12 // past the runtime's preallocated small-integer boxes
	PutSlab(GetSlab(n))
	PutMatrix(GetMatrix(3, n))
	if a := testing.AllocsPerRun(100, func() { PutSlab(GetSlab(n)) }); a != 0 {
		t.Errorf("slab round trip allocates %.0f objects", a)
	}
	if a := testing.AllocsPerRun(100, func() { PutMatrix(GetMatrix(3, n)) }); a != 0 {
		t.Errorf("matrix round trip allocates %.0f objects", a)
	}
}
