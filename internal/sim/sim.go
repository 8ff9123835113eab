// Package sim is the cycle-level simulator of ABC-FHE — the reproduction
// of the paper's own evaluation vehicle ("a cycle-level simulator was
// developed to measure latency", §V-B).
//
// The model follows the streaming architecture's contract: every engine
// (RFE lanes, MSE, PRNG, OTF TF Gen) sustains its per-cycle width, phases
// are double-buffered through the scratchpads, and an operation's latency
// is the maximum of its compute stream time and its DRAM stream time plus
// pipeline fills — exactly the quantity a streaming design exposes.
// DRAM is LPDDR5 at 68.4 GB/s (§V-A).
//
// Three memory configurations reproduce Fig. 6b:
//
//	Base  — no on-chip generation: twiddle factors stream from DRAM at
//	        datapath rate (a butterfly consumes a twiddle word per op —
//	        there is no spare on-chip capacity for 8.25 MB of tables),
//	        and public key, masks and errors are fetched per encryption.
//	TFGen — the unified OTF TF Gen removes twiddle traffic.
//	All   — the PRNG additionally generates masks/errors/keys on chip:
//	        only messages in and ciphertexts out remain.
package sim

import (
	"fmt"

	"repro/internal/core/pnl"
	"repro/internal/sched"
)

// MemoryMode selects the Fig. 6b configuration.
type MemoryMode int

const (
	MemAll   MemoryMode = iota // OTF TF Gen + PRNG (ABC-FHE)
	MemTFGen                   // OTF TF Gen only
	MemBase                    // everything from DRAM
)

func (m MemoryMode) String() string {
	switch m {
	case MemAll:
		return "ABC-FHE_All"
	case MemTFGen:
		return "ABC-FHE_TFGen"
	case MemBase:
		return "ABC-FHE_Base"
	}
	return fmt.Sprintf("MemoryMode(%d)", int(m))
}

// Config fixes the simulated machine and workload parameters.
type Config struct {
	LogN     int // polynomial degree exponent
	Limbs    int // encryption-side RNS limbs (paper: 24)
	DecLimbs int // decryption-side limbs (paper: 2)

	P    int // lanes per PNL (paper: 8)
	PNLs int // PNLs per RSC (paper: 4)
	RSCs int // streaming cores (paper: 2)

	FreqMHz  float64 // 600
	DRAMGBps float64 // 68.4 (LPDDR5)

	WordBits int // datapath word: 44

	Mem MemoryMode
}

// PaperConfig is the §V-B evaluation setup.
func PaperConfig() Config {
	return Config{
		LogN: 16, Limbs: 24, DecLimbs: 2,
		P: 8, PNLs: 4, RSCs: 2,
		FreqMHz: 600, DRAMGBps: 68.4,
		WordBits: 44,
		Mem:      MemAll,
	}
}

func (c Config) n() int { return 1 << uint(c.LogN) }

// wordBytes is the packed ciphertext word size in bytes.
func (c Config) wordBytes() float64 { return float64(c.WordBits) / 8 }

// dramBytesPerCycle converts the DRAM bandwidth to the core clock domain.
func (c Config) dramBytesPerCycle() float64 {
	return c.DRAMGBps * 1e9 / (c.FreqMHz * 1e6)
}

// Report is the outcome of simulating one operation.
type Report struct {
	Name          string
	ComputeCycles float64
	DRAMCycles    float64
	FillCycles    float64
	Cycles        float64 // max(compute, dram) + fill
	TimeMS        float64
	DRAMReadMB    float64
	DRAMWriteMB   float64
	Breakdown     map[string]float64 // phase → cycles (compute side)
}

func (c Config) finish(name string, compute, fill, readB, writeB float64) Report {
	dramCycles := (readB + writeB) / c.dramBytesPerCycle()
	cycles := compute
	if dramCycles > cycles {
		cycles = dramCycles
	}
	cycles += fill
	return Report{
		Name:          name,
		ComputeCycles: compute,
		DRAMCycles:    dramCycles,
		FillCycles:    fill,
		Cycles:        cycles,
		TimeMS:        cycles / (c.FreqMHz * 1e6) * 1e3,
		DRAMReadMB:    readB / 1e6,
		DRAMWriteMB:   writeB / 1e6,
	}
}

// laneFill returns the PNL pipeline fill latency from the lane geometry.
// A fully serial lane (P = 1) uses the P = 2 geometry's fill — the SDF
// degenerate case has the same stage count and per-stage delays within one
// cycle.
func (c Config) laneFill() float64 {
	p := c.P
	if p < 2 {
		p = 2
	}
	return float64(pnl.NewGeometry(c.LogN, p).FillLatency())
}

// EncodeEncrypt simulates encoding + encrypting one message on the RSCs
// assigned to encryption (cores ≥ 1).
func (c Config) EncodeEncrypt(cores int) Report {
	if cores < 1 {
		panic("sim: need at least one core")
	}
	n := float64(c.n())
	ops := sched.EncodeEncryptOps(c.LogN, c.Limbs)

	// Compute stream: the IFFT fuses the PNLs into one P-wide complex
	// pipeline (slots/P cycles); the 2L NTT passes run PNLs in parallel,
	// one limb per lane.
	ifftCycles := n / 2 / float64(c.P)
	nttCycles := float64(ops.TransformPasses) * (n / float64(c.P)) / float64(c.PNLs)
	compute := (ifftCycles + nttCycles) / float64(cores)

	// DRAM: message in (complex128 slots), ciphertext out (2L limbs).
	readB := n / 2 * 16
	writeB := 2 * float64(c.Limbs) * n * c.wordBytes()
	if c.Mem == MemBase || c.Mem == MemTFGen {
		// Public key, mask and error polynomials fetched per encryption
		// (§IV-B: 16.5 MB pk + 8.25 MB masks/errors at the paper config).
		readB += 2 * float64(c.Limbs) * n * c.wordBytes() // pk
		readB += float64(c.Limbs) * n * c.wordBytes()     // masks+errors
	}
	if c.Mem == MemBase {
		// No OTF generator: twiddles stream at butterfly rate —
		// (N/2)·logN words per pass.
		readB += float64(ops.TransformPasses) * (n / 2) * float64(c.LogN) * c.wordBytes()
	}

	r := c.finish("encode+encrypt", compute, c.laneFill()+float64(c.modmulFill()), readB, writeB)
	r.Breakdown = map[string]float64{"IFFT": ifftCycles, "NTT": nttCycles}
	return r
}

// DecodeDecrypt simulates decrypting + decoding one ciphertext.
func (c Config) DecodeDecrypt(cores int) Report {
	if cores < 1 {
		panic("sim: need at least one core")
	}
	n := float64(c.n())
	ops := sched.DecodeDecryptOps(c.LogN, c.DecLimbs)

	fftCycles := n / 2 / float64(c.P)
	nttCycles := float64(ops.TransformPasses) * (n / float64(c.P)) / float64(c.PNLs)
	compute := (fftCycles + nttCycles) / float64(cores)

	readB := 2 * float64(c.DecLimbs) * n * c.wordBytes() // ciphertext in
	writeB := n / 2 * 16                                 // message out
	if c.Mem == MemBase {
		readB += float64(ops.TransformPasses) * (n / 2) * float64(c.LogN) * c.wordBytes()
	}

	r := c.finish("decode+decrypt", compute, c.laneFill()+float64(c.modmulFill()), readB, writeB)
	r.Breakdown = map[string]float64{"FFT": fftCycles, "NTT": nttCycles}
	return r
}

// modmulFill is the multiplier pipeline depth (Table I: 3 stages).
func (c Config) modmulFill() int { return 3 }

// Mode runs both directions under an RSC operating mode and returns the
// reports (zero-valued when a direction gets no cores).
func (c Config) Mode(m sched.RSCMode) (enc, dec Report) {
	e, d := m.CoresFor()
	if e > 0 {
		enc = c.EncodeEncrypt(e)
	}
	if d > 0 {
		dec = c.DecodeDecrypt(d)
	}
	return enc, dec
}

// ThroughputCtPerSec returns steady-state ciphertexts/second for the
// encode+encrypt direction: back-to-back streaming hides fills, and with
// both cores encrypting the DRAM stream is the shared bottleneck.
func (c Config) ThroughputCtPerSec() float64 {
	r := c.EncodeEncrypt(1)
	perCt := r.ComputeCycles / float64(c.RSCs)
	dram := r.DRAMCycles // per ciphertext, shared across cores
	if dram > perCt {
		perCt = dram
	}
	return c.FreqMHz * 1e6 / perCt
}
