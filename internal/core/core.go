// Package core is the entry point to the ABC-FHE chip model: it binds
// the cycle-level simulator (internal/sim), the area/power model
// (internal/hw) and the client task model (internal/sched) into one
// "accelerator" object — the paper's primary contribution as a queryable
// artifact. The crypto library does not import it; cmd/abc-fhe demo,
// examples/quickstart and the repo benchmark call Default().Summarize()
// directly.
package core

import (
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/sim"
)

// System is a configured ABC-FHE instance.
type System struct {
	Sim sim.Config
	HW  hw.Config
}

// Default returns the paper's evaluation configuration: N = 2^16, 24-limb
// encryption, 2-limb decryption, 2 RSCs × 4 PNLs × 8 lanes, 600 MHz,
// LPDDR5.
func Default() System {
	return System{Sim: sim.PaperConfig(), HW: hw.PaperConfig()}
}

// WithLanes returns a copy with a different per-PNL lane count.
func (s System) WithLanes(p int) System {
	s.Sim.P = p
	s.HW.P = p
	return s
}

// WithMemoryMode returns a copy running under a Fig. 6b memory mode.
func (s System) WithMemoryMode(m sim.MemoryMode) System {
	s.Sim.Mem = m
	return s
}

// WithDegree returns a copy for polynomial degree 2^logN.
func (s System) WithDegree(logN int) System {
	s.Sim.LogN = logN
	s.HW.LogN = logN
	return s
}

// EncodeEncrypt simulates one encode+encrypt on a single core.
func (s System) EncodeEncrypt() sim.Report { return s.Sim.EncodeEncrypt(1) }

// DecodeDecrypt simulates one decode+decrypt on a single core.
func (s System) DecodeDecrypt() sim.Report { return s.Sim.DecodeDecrypt(1) }

// Mode simulates both directions under an RSC operating mode.
func (s System) Mode(m sched.RSCMode) (enc, dec sim.Report) { return s.Sim.Mode(m) }

// Chip returns the composed area/power tree (Table II).
func (s System) Chip() hw.Block { return hw.Chip(s.HW) }

// Summary is the headline card of a configured system.
type Summary struct {
	AreaMM2       float64
	PowerW        float64
	Area7nmMM2    float64
	Power7nmW     float64
	EncMS         float64
	DecMS         float64
	ThroughputCtS float64
	EncMOPs       float64
	DecMOPs       float64
}

// Summarize evaluates the system once.
func (s System) Summarize() Summary {
	chip := s.Chip()
	scaled := hw.ScaledBlock(chip)
	enc := s.EncodeEncrypt()
	dec := s.DecodeDecrypt()
	encOps := sched.EncodeEncryptOps(s.Sim.LogN, s.Sim.Limbs)
	decOps := sched.DecodeDecryptOps(s.Sim.LogN, s.Sim.DecLimbs)
	return Summary{
		AreaMM2:       chip.AreaMM2,
		PowerW:        chip.PowerW,
		Area7nmMM2:    scaled.AreaMM2,
		Power7nmW:     scaled.PowerW,
		EncMS:         enc.TimeMS,
		DecMS:         dec.TimeMS,
		ThroughputCtS: s.Sim.ThroughputCtPerSec(),
		EncMOPs:       sched.PaperComparableMOPs(encOps),
		DecMOPs:       sched.PaperComparableMOPs(decOps),
	}
}
