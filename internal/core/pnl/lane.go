package pnl

import "repro/internal/ntt"

// Geometry is the structure of one ABC-FHE pipelined NTT lane (PNL): a
// P-parallel multi-path delay commutator (MDC) pipeline of log2(N)
// radix-2 butterfly stages (paper §IV-A, Fig. 3c). Every quantity the
// hardware model prices — multiplier count, commutator FIFO depths, fill
// latency and initiation interval — is a function of (LogN, P,
// ButterflyLatency) alone; no twiddle table is involved.
type Geometry struct {
	LogN int
	P    int // coefficients consumed per cycle (paper: P = 8)

	// ButterflyLatency is the butterfly pipeline depth in cycles; the
	// NTT-friendly Montgomery multiplier is 3 stages (paper Table I), plus
	// one stage of add/sub — 4 total by default.
	ButterflyLatency int
}

// NewGeometry returns the lane geometry for N = 2^logN at P-way
// parallelism with the default 4-cycle butterfly.
func NewGeometry(logN, p int) Geometry {
	if p < 2 || p&(p-1) != 0 || p > 1<<uint(logN) {
		panic("pnl: P must be a power of two in [2, N]")
	}
	return Geometry{LogN: logN, P: p, ButterflyLatency: 4}
}

// Stages returns the number of pipeline stages (log2 N).
func (g Geometry) Stages() int { return g.LogN }

// ButterflyUnits returns the number of physical butterfly units: P/2 per
// stage in an MDC backbone.
func (g Geometry) ButterflyUnits() int { return g.P / 2 * g.Stages() }

// MultiplierUnits returns the number of physical modular multipliers —
// one per butterfly unit under merged-ψ scheduling, the paper's
// P/2·log2(N) theoretical minimum (Fig. 4).
func (g Geometry) MultiplierUnits() int { return g.ButterflyUnits() }

// FIFODepths returns the per-stage commutator FIFO depths (elements): the
// MDC shuffling structure needs buffers matching the butterfly distance
// divided by the lane parallelism, and they halve each stage ("2n FIFO" in
// paper Fig. 3b, implemented as double-buffered SRAM).
func (g Geometry) FIFODepths() []int {
	d := make([]int, g.Stages())
	for s := range d {
		t := (1 << uint(g.LogN)) >> uint(s+1) // butterfly distance at stage s
		depth := 2 * t / g.P                  // pair of delay lines across P lanes
		if depth < 2 {
			depth = 2
		}
		d[s] = depth
	}
	return d
}

// TotalFIFOElems sums FIFO storage over all stages.
func (g Geometry) TotalFIFOElems() int {
	total := 0
	for _, d := range g.FIFODepths() {
		total += d
	}
	return total
}

// InitiationInterval is the steady-state cycles between successive
// N-point transforms: the lane consumes P coefficients per cycle.
func (g Geometry) InitiationInterval() int { return (1 << uint(g.LogN)) / g.P }

// FillLatency is the pipeline fill time in cycles: each stage contributes
// its butterfly latency plus the commutator delay before its first valid
// output.
func (g Geometry) FillLatency() int {
	fill := 0
	for _, d := range g.FIFODepths() {
		fill += g.ButterflyLatency + d/2
	}
	return fill
}

// TransformCycles returns the latency in cycles to stream k back-to-back
// N-point transforms through the lane: fill + k·II.
func (g Geometry) TransformCycles(k int) int {
	if k <= 0 {
		return 0
	}
	return g.FillLatency() + k*g.InitiationInterval()
}

// StreamingLane is the functional mirror of one PNL: it executes the
// lane's butterfly schedule against the on-the-fly generator's twiddles.
// A streaming MDC pipeline computes exactly the same butterfly schedule as
// the in-place loop, so Forward/Inverse must be bit-identical to
// T.Forward / T.Inverse — the test suite enforces that.
type StreamingLane struct {
	Geometry
	T   *ntt.Table
	Gen *OTFGen

	// Stats from the last transform.
	TwiddleMuls   int // multiplications spent by the OTF generator
	ButterflyMuls int // datapath modular multiplications (one per butterfly)
}

// NewStreamingLane builds a lane model over table t with P-way parallelism.
func NewStreamingLane(t *ntt.Table, p int) *StreamingLane {
	return &StreamingLane{Geometry: NewGeometry(t.LogN, p), T: t, Gen: NewOTFGen(t)}
}

// Forward runs the streaming forward NTT (natural order in/out),
// bit-identical to T.Forward but sourcing every twiddle from the OTF
// generator.
func (l *StreamingLane) Forward(a []uint64) {
	t := l.T
	m := t.Mod
	q := m.Q
	gen0 := l.Gen.MulCount
	for s, tt := 0, t.N>>1; tt >= 1; s, tt = s+1, tt>>1 {
		tws := l.Gen.StageForward(s)
		mm := 1 << uint(s)
		for i := 0; i < mm; i++ {
			w := tws[i]
			j1 := 2 * i * tt
			for j := j1; j < j1+tt; j++ {
				u := a[j]
				v := m.MRedMul(a[j+tt], w)
				l.ButterflyMuls++
				uv := u + v
				if uv >= q {
					uv -= q
				}
				a[j] = uv
				uv = u - v
				if u < v {
					uv += q
				}
				a[j+tt] = uv
			}
		}
	}
	l.TwiddleMuls += l.Gen.MulCount - gen0
}

// Inverse runs the streaming inverse NTT with OTF twiddles, including the
// final N^{-1} scaling (bit-identical to T.Inverse).
func (l *StreamingLane) Inverse(a []uint64) {
	t := l.T
	m := t.Mod
	q := m.Q
	gen0 := l.Gen.MulCount
	tt := 1
	for s := t.LogN - 1; s >= 0; s-- {
		h := 1 << uint(s)
		tws := l.Gen.StageInverse(s)
		j1 := 0
		for i := 0; i < h; i++ {
			w := tws[i]
			for j := j1; j < j1+tt; j++ {
				u := a[j]
				v := a[j+tt]
				uv := u + v
				if uv >= q {
					uv -= q
				}
				a[j] = uv
				uv = u - v
				if u < v {
					uv += q
				}
				a[j+tt] = m.MRedMul(uv, w)
				l.ButterflyMuls++
			}
			j1 += 2 * tt
		}
		tt <<= 1
	}
	for j := range a {
		a[j] = m.MRedMul(a[j], t.NInv)
	}
	l.TwiddleMuls += l.Gen.MulCount - gen0
}
