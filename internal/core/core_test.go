package core

import (
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

func TestDefaultSummary(t *testing.T) {
	s := Default().Summarize()
	if s.AreaMM2 < 25 || s.AreaMM2 > 32 {
		t.Fatalf("area %.2f", s.AreaMM2)
	}
	if s.Area7nmMM2 > s.AreaMM2/20 {
		t.Fatalf("7nm area %.3f not ≪ 28nm %.3f", s.Area7nmMM2, s.AreaMM2)
	}
	if s.EncMOPs < 25 || s.EncMOPs > 29 || s.DecMOPs < 2.5 || s.DecMOPs > 3.2 {
		t.Fatalf("MOPs %.1f/%.1f off the paper's 27.0/2.9", s.EncMOPs, s.DecMOPs)
	}
}

func TestAcceleratorSummary(t *testing.T) {
	a := Default()
	s := a.Summarize()
	if s.AreaMM2 < 25 || s.AreaMM2 > 32 {
		t.Fatalf("area %.2f mm² far from Table II's 28.638", s.AreaMM2)
	}
	if s.PowerW < 4.5 || s.PowerW > 7 {
		t.Fatalf("power %.2f W far from Table II's 5.654", s.PowerW)
	}
	if s.EncMS <= 0 || s.DecMS <= 0 || s.DecMS > s.EncMS {
		t.Fatalf("latency ordering wrong: enc %.4f dec %.4f", s.EncMS, s.DecMS)
	}
	if s.EncMOPs < 25 || s.EncMOPs > 29 {
		t.Fatalf("enc MOPs %.1f far from paper's 27.0", s.EncMOPs)
	}
	// Reconfiguration helpers return modified copies.
	if Default().WithLanes(4).EncodeEncrypt().TimeMS <= a.EncodeEncrypt().TimeMS {
		t.Fatal("fewer lanes must not be faster")
	}
	if Default().WithDegree(14).EncodeEncrypt().TimeMS >= a.EncodeEncrypt().TimeMS {
		t.Fatal("smaller degree must be faster")
	}
}

// TestSummaryPinned holds the headline card to the exact values the model
// produced before its packages were reorganised: a refactor of the model
// must not move a bit. Compared with == on purpose; the model is a fixed
// sequence of float64 operations. The pins were taken on amd64 (other
// architectures may fuse multiply-adds and round differently).
func TestSummaryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins taken on amd64")
	}
	want := Summary{
		AreaMM2:       27.8373385340625,
		PowerW:        5.569978147028125,
		Area7nmMM2:    0.8748377917681489,
		Power7nmW:     2.0687927323592255,
		EncMS:         0.27437932748538013,
		DecMS:         0.04251219298245614,
		ThroughputCtS: 3837.1366613051473,
		EncMOPs:       26.984448,
		DecMOPs:       2.8672,
	}
	if got := Default().Summarize(); got != want {
		t.Fatalf("Default().Summarize() =\n%#v\nwant\n%#v", got, want)
	}
}

func TestWithers(t *testing.T) {
	base := Default()
	if base.WithLanes(4).Sim.P != 4 || base.Sim.P != 8 {
		t.Fatal("WithLanes must copy, not mutate")
	}
	if base.WithDegree(13).Sim.LogN != 13 || base.Sim.LogN != 16 {
		t.Fatal("WithDegree must copy, not mutate")
	}
	if base.WithMemoryMode(sim.MemBase).Sim.Mem != sim.MemBase {
		t.Fatal("WithMemoryMode")
	}
}

func TestModes(t *testing.T) {
	s := Default()
	enc, dec := s.Mode(sched.ModeEncryptDecrypt)
	if enc.Cycles == 0 || dec.Cycles == 0 {
		t.Fatal("both directions must run in mixed mode")
	}
	enc2, dec2 := s.Mode(sched.ModeDualEncrypt)
	if enc2.ComputeCycles >= enc.ComputeCycles {
		t.Fatal("dual encrypt must be faster")
	}
	if dec2.Cycles != 0 {
		t.Fatal("dual encrypt mode must not decrypt")
	}
}

func TestChipTree(t *testing.T) {
	chip := Default().Chip()
	if len(chip.Children) == 0 {
		t.Fatal("chip must have children")
	}
}
