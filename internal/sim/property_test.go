package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig fixes and logs the property tests' input stream, so a run is
// a function of the commit.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 0xABCF
	t.Logf("quick.Check seed %#x", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// Monotonicity properties of the analytic model — the sanity constraints
// any latency model must satisfy regardless of calibration.

func TestMoreBandwidthNeverSlower(t *testing.T) {
	f := func(seed uint8) bool {
		c := PaperConfig()
		c.DRAMGBps = 20 + float64(seed%100)
		slow := c.EncodeEncrypt(1).Cycles
		c.DRAMGBps *= 2
		fast := c.EncodeEncrypt(1).Cycles
		return fast <= slow
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
		t.Error(err)
	}
}

func TestMoreLimbsNeverFaster(t *testing.T) {
	f := func(seed uint8) bool {
		c := PaperConfig()
		c.Limbs = 2 + int(seed%30)
		a := c.EncodeEncrypt(1).Cycles
		c.Limbs++
		b := c.EncodeEncrypt(1).Cycles
		return b >= a
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
		t.Error(err)
	}
}

func TestMemoryModesOrdered(t *testing.T) {
	f := func(logNSeed, laneSeed uint8) bool {
		c := PaperConfig()
		c.LogN = 13 + int(logNSeed%4)
		c.P = 1 << (1 + laneSeed%5) // 2..32
		c.Mem = MemAll
		all := c.EncodeEncrypt(1).Cycles
		c.Mem = MemTFGen
		tf := c.EncodeEncrypt(1).Cycles
		c.Mem = MemBase
		base := c.EncodeEncrypt(1).Cycles
		return all <= tf && tf <= base
	}
	if err := quick.Check(f, quickConfig(t, 60)); err != nil {
		t.Error(err)
	}
}

func TestDRAMBytesConserved(t *testing.T) {
	// The report's MB fields must be consistent with its cycle count:
	// dramCycles = bytes / (bandwidth per cycle).
	c := PaperConfig()
	r := c.EncodeEncrypt(1)
	bytes := (r.DRAMReadMB + r.DRAMWriteMB) * 1e6
	wantCycles := bytes / c.dramBytesPerCycle()
	if diff := r.DRAMCycles - wantCycles; diff > 1 || diff < -1 {
		t.Fatalf("DRAM accounting inconsistent: %v vs %v", r.DRAMCycles, wantCycles)
	}
}

func TestFillSmallAgainstStream(t *testing.T) {
	// Pipeline fill must be a small fraction of the streamed operation at
	// paper scale — the premise of the streaming architecture.
	c := PaperConfig()
	r := c.EncodeEncrypt(1)
	if r.FillCycles > r.Cycles/10 {
		t.Fatalf("fill %v is not ≪ total %v", r.FillCycles, r.Cycles)
	}
}
