package serve

import (
	"fmt"
	"os"
	"sync"
	"time"

	abcfhe "repro"
)

// Clock abstracts time for the cache's LRU ordering and the service's
// latency accounting so eviction-semantics tests can drive a fake clock
// deterministically.
type Clock func() time.Time

// loadFunc re-decodes an evaluation-key blob after its resident form was
// evicted. It is captured at registration (closing over the spec's
// Server) so a reload never needs the session layer.
type loadFunc func(blob []byte) (*abcfhe.EvaluationKeys, error)

// entry is one content-addressed evaluation-key blob. `sessions` counts
// registered sessions referencing the blob (a bookkeeping refcount that
// controls entry lifetime, NOT residency); `pins` counts in-flight
// requests holding the decoded keys. Only pins protect an entry
// from eviction — a registered-but-idle session's keys are exactly the
// resource the byte budget exists to reclaim.
type entry struct {
	hash     string
	size     int64 // wire size of the blob; what the budget is charged
	spool    string
	load     loadFunc
	keys     *abcfhe.EvaluationKeys // non-nil ⇔ resident
	pins     int
	sessions int
	dead     bool // unregistered while pinned; removed when pins hit 0
	lastUse  time.Time
	seq      uint64 // tie-break for equal fake-clock timestamps

	// loadMu serializes reload of this entry only, so a cold blob is
	// decoded once while concurrent acquirers wait — and without holding
	// the cache lock across a multi-MB decode.
	loadMu sync.Mutex
}

// CacheStats is a point-in-time snapshot for /metrics and tests.
type CacheStats struct {
	Budget           int64
	ResidentBytes    int64
	Entries          int
	ResidentEntries  int
	Hits             uint64
	Misses           uint64
	Reloads          uint64
	Evictions        uint64
	AdmissionRejects uint64
	PressureRejects  uint64
}

// KeyCache is the ref-counted LRU evaluation-key cache. Entries are
// keyed by content hash (identical blobs registered by many sessions
// share one resident copy), charged at wire size against a byte budget,
// and evicted — decoded form dropped, blob kept spooled on disk — in
// LRU order among entries with zero pins. The resident-bytes invariant
// (ResidentBytes ≤ Budget) holds at every instant: Acquire reserves
// budget before decoding, never after.
type KeyCache struct {
	mu       sync.Mutex
	budget   int64
	clock    Clock
	seq      uint64
	resident int64
	entries  map[string]*entry

	hits, misses, reloads, evictions, admission, pressure uint64
}

// NewKeyCache builds a cache with the given byte budget. clock may be
// nil (time.Now).
func NewKeyCache(budget int64, clock Clock) *KeyCache {
	if clock == nil {
		clock = time.Now
	}
	return &KeyCache{budget: budget, clock: clock, entries: make(map[string]*entry)}
}

// Budget reports the configured byte budget.
func (c *KeyCache) Budget() int64 { return c.budget }

// Admit is the admission gate: a blob whose size alone exceeds the
// budget can never be made resident, so it is rejected before the
// caller reads or decodes the payload.
func (c *KeyCache) Admit(size int64) error {
	if size <= c.budget {
		return nil
	}
	c.mu.Lock()
	c.admission++
	c.mu.Unlock()
	return fmt.Errorf("%w: %d bytes > budget %d", ErrCacheAdmission, size, c.budget)
}

// Has reports whether the blob hash is registered — the caller can skip
// decoding a blob the cache already holds.
func (c *KeyCache) Has(hash string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	return ok && !e.dead
}

// IsResident reports whether the entry's decoded keys are in memory.
func (c *KeyCache) IsResident(hash string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	return ok && e.keys != nil
}

// Register adds a session reference to the blob. For a first
// registration, keys (when non-nil — the decode the registration
// already paid for) become the resident copy if the budget allows;
// otherwise the entry starts cold and the first Acquire reloads it from
// spool. Re-registration of a known hash only bumps the session count.
func (c *KeyCache) Register(hash string, size int64, spool string, keys *abcfhe.EvaluationKeys, load loadFunc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		c.admission++
		return fmt.Errorf("%w: %d bytes > budget %d", ErrCacheAdmission, size, c.budget)
	}
	if e, ok := c.entries[hash]; ok {
		e.sessions++
		e.dead = false
		return nil
	}
	e := &entry{hash: hash, size: size, spool: spool, load: load, sessions: 1}
	c.entries[hash] = e
	if keys != nil && c.makeRoom(size) {
		e.keys = keys
		c.resident += size
		c.touch(e)
	}
	return nil
}

// Unregister drops one session reference. At zero references the entry
// is removed (and its spool file deleted) — immediately when unpinned,
// or deferred to the last release while a request still holds a pin.
func (c *KeyCache) Unregister(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		return
	}
	if e.sessions > 0 {
		e.sessions--
	}
	if e.sessions == 0 {
		if e.pins > 0 {
			e.dead = true
		} else {
			c.remove(e)
		}
	}
}

// Acquire pins the entry's decoded keys for the duration of one
// request's run and returns them with a release func. A cold entry is reloaded
// from its spooled blob after reserving budget (evicting LRU unpinned
// entries as needed); if every resident byte is pinned, Acquire fails
// with ErrCachePressure rather than overshooting the budget.
func (c *KeyCache) Acquire(hash string) (*abcfhe.EvaluationKeys, func(), error) {
	c.mu.Lock()
	e, ok := c.entries[hash]
	if !ok || e.dead {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: key blob %.12s… not registered", ErrUnknownSession, hash)
	}
	e.pins++ // pin before any unlock so eviction/removal can't race the load
	if e.keys != nil {
		c.hits++
		c.touch(e)
		k := e.keys
		c.mu.Unlock()
		return k, c.releaseFunc(e), nil
	}
	c.misses++
	c.mu.Unlock()

	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	c.mu.Lock()
	if e.keys != nil { // a concurrent acquirer loaded it while we waited
		c.touch(e)
		k := e.keys
		c.mu.Unlock()
		return k, c.releaseFunc(e), nil
	}
	if !c.makeRoom(e.size) {
		c.pressure++
		e.pins--
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: need %d bytes, all resident entries pinned", ErrCachePressure, e.size)
	}
	c.resident += e.size // reserve before decoding: the invariant never lapses
	c.mu.Unlock()

	blob, err := os.ReadFile(e.spool)
	var keys *abcfhe.EvaluationKeys
	if err == nil {
		keys, err = e.load(blob)
	}

	c.mu.Lock()
	if err != nil {
		c.resident -= e.size
		e.pins--
		if e.dead && e.pins == 0 && e.sessions == 0 {
			c.remove(e)
		}
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("serve: reloading evaluation keys %.12s…: %w", hash, err)
	}
	e.keys = keys
	c.reloads++
	c.touch(e)
	c.mu.Unlock()
	return keys, c.releaseFunc(e), nil
}

func (c *KeyCache) releaseFunc(e *entry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			e.pins--
			c.touch(e)
			if e.dead && e.pins == 0 && e.sessions == 0 {
				c.remove(e)
			}
		})
	}
}

// remove drops an entry entirely: resident accounting, map slot, and
// the spooled blob. Caller holds c.mu.
func (c *KeyCache) remove(e *entry) {
	if e.keys != nil {
		c.resident -= e.size
		e.keys = nil
	}
	delete(c.entries, e.hash)
	if e.spool != "" {
		os.Remove(e.spool)
	}
}

// makeRoom evicts LRU unpinned resident entries until need bytes fit
// under the budget. Returns false (leaving survivors untouched beyond
// those already evicted) when pinned entries make that impossible.
// Caller holds c.mu.
func (c *KeyCache) makeRoom(need int64) bool {
	for c.resident+need > c.budget {
		var victim *entry
		for _, e := range c.entries {
			if e.keys == nil || e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse.Before(victim.lastUse) ||
				(e.lastUse.Equal(victim.lastUse) && e.seq < victim.seq) {
				victim = e
			}
		}
		if victim == nil {
			return false
		}
		victim.keys = nil
		c.resident -= victim.size
		c.evictions++
	}
	return true
}

// touch marks an entry most-recently-used. Caller holds c.mu.
func (c *KeyCache) touch(e *entry) {
	e.lastUse = c.clock()
	c.seq++
	e.seq = c.seq
}

// Stats snapshots counters and gauges.
func (c *KeyCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Budget:           c.budget,
		ResidentBytes:    c.resident,
		Entries:          len(c.entries),
		Hits:             c.hits,
		Misses:           c.misses,
		Reloads:          c.reloads,
		Evictions:        c.evictions,
		AdmissionRejects: c.admission,
		PressureRejects:  c.pressure,
	}
	for _, e := range c.entries {
		if e.keys != nil {
			s.ResidentEntries++
		}
	}
	return s
}
