package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// vals: the smallest value with at least p % of the samples at or below
// it. vals is not modified. An empty input yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two central samples for an
// even count) — what the small-n passes report, where nearest-rank would
// systematically pick the lower neighbour.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// minOf times fn k times after one unmeasured warm-up call and returns
// the fastest run — the probe estimator: a kernel's floor on this
// machine, insensitive to a scheduler hiccup in any single call.
func minOf(k int, fn func()) time.Duration {
	fn()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// precisionCeilingBits is the cap ckks.MeasurePrecision puts on reported
// bits when the error underflows; a pass's minimum starts from it.
const precisionCeilingBits = 60.0

// splitmix is the harness's input generator: every message, key seed and
// device seed of a run derives from the one -seed through it, so the
// library only ever receives generated inputs and the same seed always
// yields the same bytes (math/rand's stream is not pinned across Go
// releases for all helpers; this is).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit returns a float in [-1, 1).
func (r *splitmix) unit() float64 {
	return float64(r.next()>>11)/float64(1<<52) - 1
}

// message fills a full-slot complex vector with components in [-1, 1).
func (r *splitmix) message(slots int) []complex128 {
	msg := make([]complex128, slots)
	for i := range msg {
		msg[i] = complex(r.unit(), r.unit())
	}
	return msg
}

// fork derives an independent generator for a labelled sub-stream, so
// adding a consumer never shifts the values another one sees.
func (r splitmix) fork(label uint64) *splitmix {
	f := splitmix{s: r.s ^ (label+1)*0xD6E8FEB86659FD93}
	f.next()
	return &f
}
