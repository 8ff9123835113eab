package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/lanes"
)

// idleRetentionCap is how many bytes of idle pooled scratch a walk down
// the chain may leave, as a multiple of the most scratch it had out at
// once. One working set per ring degree, resliced as the limb count falls,
// stays within it; a pool per (limbs, degree) shape keeps one working set
// per level and exceeds it.
const idleRetentionCap = 1.5

// TestPoolRetentionWalkDownChain: a Test-preset Mul → Rescale → Rotate
// walk from the top level to the bottom, intermediates released, leaves
// idle pooled bytes within idleRetentionCap of its outstanding high-water
// mark. The pools start empty (two collections trim them) and the
// collector is off during the walk, so no trim hides retention.
func TestPoolRetentionWalkDownChain(t *testing.T) {
	b := newBudgetParty(TestParams)
	defer b.p.Close()
	b.p.SetWorkers(1)
	rlk := b.kg.GenRelinearizationKeyHybridAt(b.p.MaxLevel())
	rot := b.kg.GenRotationKeyHybridAt(b.p.GaloisElement(1), b.p.MaxLevel())
	ct := b.encrypt()

	for i := 0; lanes.Stats().IdleBytes != 0; i++ {
		if i == 200 {
			t.Fatalf("idle pooled bytes %d after 200 collections", lanes.Stats().IdleBytes)
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // trims run on the finalizer goroutine
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := lanes.Stats()
	lanes.ResetHighWater()
	for ct.Level > 1 {
		prod := b.ev.MulRelin(ct, ct, rlk)
		down := b.ev.Rescale(prod)
		b.ev.release(prod)
		next := b.ev.RotateGalois(down, rot)
		b.ev.release(down, ct)
		ct = next
	}
	end := lanes.Stats()
	high := end.HighWaterBytes - start.OutstandingBytes
	ratio := float64(end.IdleBytes) / float64(high)
	t.Logf("idle %d B, high water %d B: %.2f× (cap %.2f×)", end.IdleBytes, high, ratio, idleRetentionCap)
	if ratio > idleRetentionCap {
		t.Errorf("the walk left %.2f× its high water idle in the pools, cap %.2f×", ratio, idleRetentionCap)
	}
}
