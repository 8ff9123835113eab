package pnl

import (
	"math/rand"
	"testing"

	"repro/internal/ntt"
	"repro/internal/primes"
)

// Test moduli: (N, q) pairs with q ≡ 1 mod 2N.
var testCfgs = []struct {
	n int
	q uint64
}{
	{8, 97},             // tiny: 97 ≡ 1 mod 16
	{16, 97},            // 97 ≡ 1 mod 32
	{256, 7681},         // Kyber-era prime
	{1024, 132120577},   // 27-bit
	{4096, 68718428161}, // 36-bit CKKS limb
	{64, primes.GenerateNTTPrimes(1, 61, 6)[0]}, // 61-bit: the widest limbs
}

func randPoly(n int, q uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	return a
}

func TestOTFGenMatchesTables(t *testing.T) {
	for _, cfg := range testCfgs {
		tbl := ntt.MustTable(cfg.n, cfg.q)
		gen := NewOTFGen(tbl)
		for s := 0; s < tbl.LogN; s++ {
			mm := 1 << uint(s)
			fw := gen.StageForward(s)
			for i := 0; i < mm; i++ {
				if fw[i] != tbl.Mod.MForm(tbl.W[mm+i]) {
					t.Fatalf("N=%d q=%d stage %d: OTF forward twiddle %d mismatch",
						cfg.n, cfg.q, s, i)
				}
			}
			inv := gen.StageInverse(s)
			for i := 0; i < mm; i++ {
				if inv[i] != tbl.Mod.MForm(cfg.q-tbl.W[2*mm-1-i]) {
					t.Fatalf("N=%d q=%d stage %d: OTF inverse twiddle %d mismatch",
						cfg.n, cfg.q, s, i)
				}
			}
		}
	}
}

func TestOTFSeedFootprint(t *testing.T) {
	// The whole point of the OTF generator: seed storage is O(logN) words,
	// versus N words for the full table — a >99.9% reduction at N=2^16
	// (paper §IV-B).
	tbl := ntt.MustTable(4096, 68718428161)
	gen := NewOTFGen(tbl)
	seedBytes := gen.SeedBytes(8)
	tableBytes := 2 * tbl.N * 8 // forward + inverse tables
	if seedBytes >= tableBytes/100 {
		t.Fatalf("seed footprint %dB not ≪ table footprint %dB", seedBytes, tableBytes)
	}
}

func TestStreamingLaneBitIdentical(t *testing.T) {
	for _, cfg := range testCfgs {
		tbl := ntt.MustTable(cfg.n, cfg.q)
		p := 8
		if p > cfg.n {
			p = cfg.n / 2
		}
		lane := NewStreamingLane(tbl, p)
		a := randPoly(cfg.n, cfg.q, 4)
		ref := append([]uint64(nil), a...)
		st := append([]uint64(nil), a...)

		tbl.Forward(ref)
		lane.Forward(st)
		for i := range ref {
			if ref[i] != st[i] {
				t.Fatalf("N=%d: streaming forward differs at %d", cfg.n, i)
			}
		}
		tbl.Inverse(ref)
		lane.Inverse(st)
		for i := range ref {
			if ref[i] != st[i] {
				t.Fatalf("N=%d: streaming inverse differs at %d", cfg.n, i)
			}
		}
	}
}

func TestStreamingLaneStats(t *testing.T) {
	tbl := ntt.MustTable(1024, 132120577)
	lane := NewStreamingLane(tbl, 8)
	a := randPoly(1024, tbl.Mod.Q, 5)
	lane.Forward(a)
	// One multiplication per butterfly: (N/2)·logN.
	want := 512 * 10
	if lane.ButterflyMuls != want {
		t.Fatalf("butterfly muls = %d, want %d", lane.ButterflyMuls, want)
	}
	// Physical structure: P/2·logN multipliers (paper's minimum).
	if lane.MultiplierUnits() != 4*10 {
		t.Fatalf("multiplier units = %d, want 40", lane.MultiplierUnits())
	}
	// II = N/P.
	if lane.InitiationInterval() != 128 {
		t.Fatalf("II = %d, want 128", lane.InitiationInterval())
	}
	// FIFO storage is O(N/P) per lane pair and decreasing per stage.
	depths := lane.FIFODepths()
	for s := 1; s < len(depths); s++ {
		if depths[s] > depths[s-1] {
			t.Fatalf("FIFO depths must be non-increasing: %v", depths)
		}
	}
	if lane.TransformCycles(1) <= lane.InitiationInterval() {
		t.Fatal("fill latency must be positive")
	}
	// Back-to-back streaming amortizes fill.
	c1 := lane.TransformCycles(1)
	c10 := lane.TransformCycles(10)
	if c10 >= 10*c1 {
		t.Fatal("streaming must amortize pipeline fill")
	}
}

func TestGrayMulsPerStage(t *testing.T) {
	if GrayMulsPerStage(0) != 0 || GrayMulsPerStage(1) != 1 || GrayMulsPerStage(4) != 15 {
		t.Fatal("Gray-schedule multiplication counts wrong")
	}
}

func BenchmarkStreamingForward4096(b *testing.B) {
	tbl := ntt.MustTable(4096, 68718428161)
	lane := NewStreamingLane(tbl, 8)
	a := randPoly(4096, tbl.Mod.Q, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane.Forward(a)
	}
}
