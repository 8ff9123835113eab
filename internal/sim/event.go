package sim

import (
	"fmt"

	"repro/internal/core/pnl"
)

// Discrete-event validation of the streaming model. The analytic
// simulator (sim.go) asserts two properties of a streaming pipeline:
//
//  1. steady-state initiation interval N/P with a one-time fill latency, and
//  2. operation latency = max(compute stream, DRAM stream) when the input
//     is bandwidth-throttled.
//
// PipelineSim checks both from first principles: it moves "beats" (groups
// of P coefficients) through the PNL's stage queue structure cycle by
// cycle, honoring per-stage latencies and single-issue ports, and tracks
// commutator FIFO occupancy against the depths the hardware model sizes
// (pnl.Geometry.FIFODepths → SRAM area in internal/hw).

// PipelineSim models one PNL as a chain of stages with fixed latencies
// and II = 1 per beat.
type PipelineSim struct {
	P         int
	latencies []int // per-stage beat latency (butterfly depth + commutator wait)
	caps      []int // per-stage FIFO capacity in beats
}

// NewPipelineSim derives the stage structure from the streaming lane
// geometry: stage s waits for its commutator to hold half its FIFO before
// producing, and buffers at most the FIFO depth.
func NewPipelineSim(logN, p, butterflyLatency int) *PipelineSim {
	depths := pnl.Geometry{LogN: logN, P: p, ButterflyLatency: butterflyLatency}.FIFODepths()
	ps := &PipelineSim{P: p}
	for _, d := range depths {
		// A stage's commutator delays the beat stream by half its FIFO
		// depth (one delay line of the pair), matching the analytic
		// Geometry.FillLatency term exactly.
		wait := d / 2
		if wait < 1 {
			wait = 1
		}
		lat := butterflyLatency + wait
		ps.latencies = append(ps.latencies, lat)
		// A beat occupies the stage for its latency at II=1; capacity is
		// that residency plus double-buffer slack.
		ps.caps = append(ps.caps, lat+2)
	}
	return ps
}

// RunResult reports a discrete run.
type RunResult struct {
	// DoneCycle[b] is the cycle the b-th beat leaves the last stage.
	DoneCycle []int
	// MaxOccupancy[s] is the peak number of beats resident in stage s.
	MaxOccupancy []int
	// TotalCycles is the completion time of the final beat.
	TotalCycles int
}

// Run pushes beats whose arrival cycles are given (non-decreasing) through
// the pipeline and returns completion statistics. Arrival b at cycle
// arrivals[b]; each stage forwards a beat no earlier than (arrival at the
// stage + latency) and no faster than one beat per cycle.
func (ps *PipelineSim) Run(arrivals []int) RunResult {
	nb := len(arrivals)
	res := RunResult{
		DoneCycle:    make([]int, nb),
		MaxOccupancy: make([]int, len(ps.latencies)),
	}
	// in[b] = cycle beat b enters current stage; out[b] = cycle it leaves.
	in := append([]int(nil), arrivals...)
	out := make([]int, nb)
	for s, lat := range ps.latencies {
		prevOut := -1
		for b := 0; b < nb; b++ {
			t := in[b] + lat
			if t <= prevOut {
				t = prevOut + 1
			}
			out[b] = t
			prevOut = t
		}
		// Occupancy: beats that have entered but not left at each event
		// point. Scan with two pointers over the sorted sequences.
		occ, maxOcc, j := 0, 0, 0
		for b := 0; b < nb; b++ {
			// beat b enters at in[b]; release all beats with out ≤ in[b].
			for j < nb && out[j] <= in[b] {
				occ--
				j++
			}
			occ++
			if occ > maxOcc {
				maxOcc = occ
			}
		}
		res.MaxOccupancy[s] = maxOcc
		in, out = out, in
	}
	copy(res.DoneCycle, in)
	res.TotalCycles = in[nb-1]
	return res
}

// BackToBack returns the arrival schedule of k transforms streamed with no
// gaps: beat b of transform t arrives at cycle t·(N/P) + b.
func BackToBack(logN, p, k int) []int {
	beats := (1 << uint(logN)) / p
	out := make([]int, 0, beats*k)
	c := 0
	for t := 0; t < k; t++ {
		for b := 0; b < beats; b++ {
			out = append(out, c)
			c++
		}
	}
	return out
}

// Throttled returns an arrival schedule limited to one beat per
// `interval` cycles — the shape of a DRAM-starved input stream.
func Throttled(logN, p, interval int) []int {
	beats := (1 << uint(logN)) / p
	out := make([]int, beats)
	for b := range out {
		out[b] = b * interval
	}
	return out
}

// ValidateAnalyticModel cross-checks the discrete pipeline against the
// analytic lane-geometry cycle model and returns an error describing any
// divergence beyond tolerance.
func ValidateAnalyticModel(logN, p int) error {
	ps := NewPipelineSim(logN, p, 4)
	lane := pnl.NewGeometry(logN, p)

	for _, k := range []int{1, 4} {
		discrete := ps.Run(BackToBack(logN, p, k)).TotalCycles
		analytic := lane.TransformCycles(k)
		diff := discrete - analytic
		if diff < 0 {
			diff = -diff
		}
		// The models share II exactly; fills may differ by the commutator
		// rounding (≤ one FIFO's worth of beats per stage).
		tol := lane.Stages() * 4
		if tol < analytic/10 {
			tol = analytic / 10
		}
		if diff > tol {
			return fmt.Errorf("sim: discrete %d vs analytic %d cycles (k=%d) exceeds tolerance %d",
				discrete, analytic, k, tol)
		}
	}
	return nil
}
