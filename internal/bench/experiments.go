package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/fftfp"
	"repro/internal/hw"
	"repro/internal/modmul"
	"repro/internal/primes"
	"repro/internal/sched"
	"repro/internal/sfg"
	"repro/internal/sim"
)

func init() {
	register("fig1", fig1)
	register("fig2", fig2)
	register("fig3c", fig3c)
	register("fig4", fig4)
	register("table1", table1)
	register("table2", table2)
	register("fig5a", fig5a)
	register("fig5b", fig5b)
	register("fig6a", fig6a)
	register("fig6b", fig6b)
	register("memclaim", memclaim)
	register("primes", primeCensus)
	register("seeded", seeded)
	register("archsweep", archsweep)
}

// fig1: client/server execution-time breakdown (ResNet20-FHE).
func fig1(opt Options) Result {
	c := sim.PaperConfig()
	enc := c.EncodeEncrypt(1)
	dec := c.DecodeDecrypt(1)
	rows := baseline.Fig1(enc.TimeMS, dec.TimeMS, 1000)

	r := Result{
		ID:    "fig1",
		Title: "Execution-time breakdown, client vs server (ResNet20-FHE)",
		Description: "Client latencies from our cycle simulator; prior systems anchored on the\n" +
			"paper's published ratios; server share from the published 30.6%/69.4% split.",
		Header: []string{"configuration", "client enc (ms)", "client dec (ms)", "server (ms)", "client share", "paper mark"},
	}
	marks := []string{"99.9%", "69.4%", "12.8%"}
	for i, row := range rows {
		r.Rows = append(r.Rows, []string{
			row.Label, f1(row.ClientEncMS), f1(row.ClientDecMS), f1(row.ServerMS),
			pct(row.ClientShare), marks[i],
		})
	}
	r.Notes = append(r.Notes,
		"workload: 1000 client round trips; shares are scale-invariant in the round-trip count",
		"the paper's 99.9%/12.8% marks are not derivable from its own speed-up ratios (ratio-implied CPU maximum ≈92%); ordering and bottleneck flip reproduce")
	return r
}

// fig2: client-side operation counts and imbalance.
func fig2(opt Options) Result {
	rows := sched.Fig2(16, 24, 2)
	r := Result{
		ID:     "fig2",
		Title:  "CKKS client-side operation analysis (N=2^16, 24-limb enc / 2-limb dec)",
		Header: []string{"operation", "I/FFT MOPs", "I/NTT MOPs", "elementwise MOPs", "others MOPs", "total MOPs", "paper MOPs"},
	}
	paper := []string{"27.0", "2.9"}
	for i, row := range rows {
		r.Rows = append(r.Rows, []string{
			row.Name,
			f2(row.Ops.FFTOps / 1e6), f2(row.Ops.NTTOps / 1e6),
			f2(row.Ops.ElementWise / 1e6), f2(row.Ops.Others / 1e6),
			f2(row.MOPs), paper[i],
		})
	}
	ratio := rows[0].MOPs / rows[1].MOPs
	r.Notes = append(r.Notes,
		fmt.Sprintf("enc/dec imbalance: %.1fx (paper: ~10x)", ratio),
		"counting: 1 butterfly = 1 op, 1 element-wise modular op = 1 op; see internal/sched")
	return r
}

// fig3c: bootstrapping precision vs FP mantissa width.
func fig3c(opt Options) Result {
	logN := 16
	if opt.Fast {
		logN = 11
	}
	e := fftfp.NewEmbedder(logN)
	mants := []int{25, 28, 31, 34, 37, 40, 43, 46, 49, 52}
	r := Result{
		ID:    "fig3c",
		Title: fmt.Sprintf("Precision vs FP mantissa width (N=2^%d)", logN),
		Description: "Round-trip: encode→decode at reduced mantissa. Boot proxy: the plaintext\n" +
			"shadow of a bootstrap (StC → sine-poly EvalMod → CtS) at reduced mantissa.",
		Header: []string{"mantissa bits", "round-trip bits", "boot-proxy bits", "≥19.29 threshold"},
	}
	var proxyResults []fftfp.PrecisionResult
	for _, m := range mants {
		rt := fftfp.RoundTripPrecision(e, m, 11)
		bp := fftfp.BootPrecisionProxy(e, m, 11)
		proxyResults = append(proxyResults, bp)
		meets := "no"
		if bp.Bits >= 19.29 {
			meets = "yes"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", m), f2(rt.Bits), f2(bp.Bits), meets,
		})
	}
	drop := fftfp.DropOffPoint(proxyResults, 19.29)
	// The paper's boot precision carries a mantissa-independent noise
	// overhead of ≈19.6 bits (23.39 bits at 43 mantissa bits); our proxy
	// measures the pure datapath error (≈ m-1 bits, slope 1). Applying the
	// paper's overhead to our curve locates the threshold crossing.
	offset := 43.0 - 23.39
	var paperStyleDrop int = -1
	for _, pr := range proxyResults {
		if pr.Bits-offset >= 19.29 {
			paperStyleDrop = pr.MantissaBits
			break
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("raw drop-off (datapath error only): %d bits; with the paper's ≈%.1f-bit bootstrap-noise overhead applied, the crossing lands at %d mantissa bits (paper chooses 43)", drop, offset, paperStyleDrop),
		"slope ≈ 1 bit of precision per mantissa bit with saturation at the float64 emulation ceiling — the paper's drop-off shape",
		"paper measures through its full bootstrapping stack; our proxy exercises the same reduced-precision datapath (DESIGN.md substitution table)")
	return r
}

// fig4: twiddle scheduling and the multiplier design space.
func fig4(opt Options) Result {
	nttSum := sfg.Summarize(sfg.NTT, 16, 8)
	fftSum := sfg.Summarize(sfg.FFT, 16, 8)
	r := Result{
		ID:     "fig4",
		Title:  "Multiplier counts across pipelined NTT/FFT design configurations (P=8, N=2^16)",
		Header: []string{"design", "multipliers (GME)", "reduction vs design"},
	}
	r.Rows = append(r.Rows,
		[]string{"NTT radix-2 (separate pre/post)", f0(nttSum.Radix2Muls), pct(nttSum.ReductionVsR2) + " (paper 29.7%)"},
		[]string{"NTT radix-2^2 (separate pre/post)", f0(nttSum.Radix4Muls), pct(nttSum.ReductionVsR2x2) + " (paper 22.3%)"},
		[]string{"NTT radix-2^n merged (ABC-FHE)", f0(nttSum.MergedMuls), "theoretical min P/2*log2(N) = 64"},
		[]string{"FFT radix-2", f0(fftSum.Radix2Muls), ""},
		[]string{"FFT radix-2^2", f0(fftSum.Radix4Muls), ""},
		[]string{"FFT best (radix-2^n family)", f0(fftSum.MinMuls), ""},
	)
	r.Notes = append(r.Notes,
		fmt.Sprintf("8-point SFG example (Fig. 4a): separate pre-processing = %d mults, merged = %d (paper: 13 vs 12)",
			sfg.SpatialMultCount(8, false), sfg.SpatialMultCount(8, true)),
		fmt.Sprintf("design space: %d NTT configurations explored; merged radix-2^n is the global minimum", len(nttSum.Points)),
		"GME = generic-multiplier equivalents; counting rules documented in internal/sfg")
	return r
}

// table1: modular multiplier area/pipeline comparison.
func table1(opt Options) Result {
	r := Result{
		ID:     "table1",
		Title:  "Area of modular multiplier (44-bit, 600 MHz, 28 nm)",
		Header: []string{"algorithm", "area (um^2)", "paper (um^2)", "pipeline stages", "structural reduction vs Barrett"},
	}
	for _, d := range []modmul.Design{modmul.Barrett, modmul.Montgomery, modmul.FriendlyMontgomery} {
		r.Rows = append(r.Rows, []string{
			d.String(),
			f0(modmul.AreaUM2(d, 44)),
			f0(d.PaperAreaUM2()),
			fmt.Sprintf("%d", d.PipelineStages()),
			pct(modmul.ModelReductionVsBarrett(d)),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("paper reductions: friendly vs Barrett 67.7%% (anchored: %s), vs vanilla Montgomery 41.2%% (anchored: %s)",
			pct(modmul.ReductionVsBarrett(modmul.FriendlyMontgomery)), pct(modmul.ReductionVsMontgomery())),
		"all three datapaths verified bit-accurate against reference modular multiplication (internal/modmul tests)")
	return r
}

// table2: chip area/power breakdown.
func table2(opt Options) Result {
	cfg := hw.PaperConfig()
	rows := hw.TableII(cfg)
	r := Result{
		ID:     "table2",
		Title:  "Area and power breakdown of ABC-FHE (28 nm, 600 MHz)",
		Header: []string{"component", "area mm^2", "paper mm^2", "power W", "paper W"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{
			row.Name, f3(row.AreaMM2), f3(row.PaperAreaMM2), f3(row.PowerW), f3(row.PaperPowerW),
		})
	}
	s := hw.ScaledBlock(hw.Chip(cfg))
	r.Notes = append(r.Notes,
		fmt.Sprintf("7 nm projection (DeepScaleTool factors): %.3f mm², %.3f W (paper: ~0.9 mm², ~2.1 W)", s.AreaMM2, s.PowerW),
		"composition is structural (multiplier counts from internal/sfg, FIFO geometry from internal/core/pnl, MM areas from Table I anchors)")
	return r
}

// fig5a: latency and speed-up vs CPU and prior accelerators.
func fig5a(opt Options) Result {
	c := sim.PaperConfig()
	enc := c.EncodeEncrypt(1)
	dec := c.DecodeDecrypt(1)
	pts := baseline.AnchoredSet(enc.TimeMS, dec.TimeMS)

	r := Result{
		ID:     "fig5a",
		Title:  "Execution time and speed-up (N=2^16, enc 24-limb, dec 2-limb)",
		Header: []string{"system", "op", "latency (ms)", "speed-up vs ABC", "provenance"},
	}
	for _, p := range pts {
		var sp string
		if p.Op == "enc" {
			sp = f1(p.LatencyMS / enc.TimeMS)
		} else {
			sp = f1(p.LatencyMS / dec.TimeMS)
		}
		r.Rows = append(r.Rows, []string{p.System, p.Op, fmt.Sprintf("%.4f", p.LatencyMS), sp, string(p.Provenance)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("ABC-FHE simulated: enc %.4f ms (DRAM-bound: %.0f compute vs %.0f DRAM cycles), dec %.4f ms",
			enc.TimeMS, enc.ComputeCycles, enc.DRAMCycles, dec.TimeMS),
		"paper speed-ups: 1112x/963x vs CPU, 214x/82x vs SOTA accelerators (anchors)")
	return r
}

// fig5b: lane sweep.
func fig5b(opt Options) Result {
	pts := sim.LaneSweep(sim.PaperConfig(), []int{1, 2, 4, 8, 16, 32, 64})
	r := Result{
		ID:     "fig5b",
		Title:  "Effect of PNL lane count on execution time and throughput (LPDDR5 68.4 GB/s)",
		Header: []string{"lanes", "enc time (ms)", "throughput (ct/s)", "bound"},
	}
	for _, p := range pts {
		bound := "compute"
		if p.DRAMBound {
			bound = "DRAM"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Lanes), f3(p.EncTimeMS), f0(p.ThroughputCt), bound,
		})
	}
	r.Notes = append(r.Notes,
		"paper: memory bottleneck caps performance at 8 lanes — the configuration ABC-FHE ships")
	return r
}

// fig6a: RFE area ablation.
func fig6a(opt Options) Result {
	pts := hw.Fig6aAblation(hw.PaperConfig())
	r := Result{
		ID:     "fig6a",
		Title:  "RFE area ablation (P=8 MDC; one FFT + four NTT results)",
		Header: []string{"design point", "area (mm^2)", "relative"},
	}
	for _, p := range pts {
		r.Rows = append(r.Rows, []string{p.Label, f3(p.AreaMM2), f3(p.Relative)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("total reduction: %s (paper: 31%%)", pct(hw.TotalReduction(pts))))
	return r
}

// fig6b: memory-optimization ablation across polynomial degrees.
func fig6b(opt Options) Result {
	pts := sim.MemorySweep(sim.PaperConfig(), []int{13, 14, 15, 16})
	r := Result{
		ID:     "fig6b",
		Title:  "On-chip generation ablation (encode+encrypt latency, ms)",
		Header: []string{"logN", "Base", "TFGen", "All", "Base/All speed-up"},
	}
	for _, p := range pts {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.LogN), f3(p.BaseMS), f3(p.TFGenMS), f3(p.AllMS), f1(p.SpeedupAll),
		})
	}
	r.Notes = append(r.Notes,
		"paper: ABC-FHE_All achieves ~8.2-9.3x over ABC-FHE_Base",
		"Base streams twiddles at butterfly rate and fetches pk/masks/errors per encryption")
	return r
}

// memclaim: §IV-B on-chip memory accounting.
func memclaim(opt Options) Result {
	m := sim.Footprint(sim.PaperConfig())
	mb := func(b float64) string { return f2(b / (1 << 20)) }
	r := Result{
		ID:     "memclaim",
		Title:  "On-chip memory accounting (N=2^16, 44-bit, 24 limbs)",
		Header: []string{"category", "ours (MiB)", "paper (MB)"},
		Rows: [][]string{
			{"public key", mb(m.PublicKeyB), "16.5"},
			{"masks + errors", mb(m.MaskErrorB), "8.25"},
			{"twiddle factors", mb(m.TwiddleB), "8.25"},
			{"seed store (KB)", f1(m.SeedStoreB / 1024), "26.4 + 128-bit PRNG seed"},
		},
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("reduction from on-chip generation: %s (paper: >99.9%%)", pct(m.ReductionFraction())))
	return r
}

// primeCensus: §IV-A NTT-friendly prime family.
func primeCensus(opt Options) Result {
	total, per := primes.CensusPaper(32, 36, 16)
	broad, _ := primes.Census(32, 36, 16, 3)
	r := Result{
		ID:     "primes",
		Title:  "NTT-friendly prime census (Eq. 8: Q = 2^bw + k*2^(n+1) + 1, N=2^16)",
		Header: []string{"bit length", "strict Eq.8 count"},
	}
	for b := 32; b <= 36; b++ {
		r.Rows = append(r.Rows, []string{fmt.Sprintf("%d", b), fmt.Sprintf("%d", per[b])})
	}
	r.Rows = append(r.Rows, []string{"total", fmt.Sprintf("%d", total)})
	r.Notes = append(r.Notes,
		fmt.Sprintf("paper reports 443; strict reading gives %d (+%d%%), broad census (any sign, <=3 terms): %d", total, int(100*(float64(total)/443-1)), broad),
		"every family member's shift-add QInv (Eq. 11) is verified in internal/primes tests")
	return r
}

// seeded: extension study — seeded (PRNG-compressed) ciphertexts halve
// the client's upstream DRAM/wire traffic.
func seeded(opt Options) Result {
	r := Result{
		ID:    "seeded",
		Title: "Extension: seeded ciphertext compression (c1 regenerated from a 16-byte seed)",
		Description: "ABC-FHE's on-chip PRNG makes the c1 mask publicly derivable for fresh\n" +
			"uploads; the client then ships only c0 + seed. The design is DRAM-bound at\n" +
			"8 lanes, so halving the write stream buys real latency and throughput.",
		Header: []string{"logN", "standard (ms)", "seeded (ms)", "speed-up", "write saved (MB)", "ct/s std", "ct/s seeded"},
	}
	for _, logN := range []int{13, 14, 15, 16} {
		c := sim.PaperConfig()
		c.LogN = logN
		s := c.SeededStudy()
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", logN),
			f3(s.Standard.TimeMS), f3(s.Seeded.TimeMS), f2(s.Speedup),
			f1(s.WriteSaveMB), f0(s.ThroughputStandard), f0(s.ThroughputSeeded),
		})
	}
	r.Notes = append(r.Notes,
		"functional implementation and wire format in internal/ckks (seeded.go); the halved size is asserted against the serializer",
		"not in the paper — an extension its PRNG architecture enables (DESIGN.md lists extension scope)")
	return r
}

// archsweep: architecture design-space exploration — how area, power and
// client-operation latency trade as the PNL/RSC/lane budget moves. Not a
// paper figure; the kind of study the paper's own "larger is not always
// optimal" argument (§II-C) rests on.
func archsweep(opt Options) Result {
	r := Result{
		ID:    "archsweep",
		Title: "Architecture sweep: lanes x PNLs x RSCs vs area/power/latency (N=2^16)",
		Description: "Every point pairs the hw composition with the cycle simulator; the\n" +
			"shipping configuration (8 lanes, 4 PNLs, 2 RSCs) sits at the knee.",
		Header: []string{"lanes", "PNLs", "RSCs", "area mm^2", "power W", "enc ms", "dec ms", "area x delay"},
	}
	type point struct{ p, pnls, rscs int }
	pts := []point{
		{4, 2, 1}, {8, 2, 1}, {4, 4, 2}, {8, 4, 1},
		{8, 4, 2}, {16, 4, 2}, {8, 8, 2}, {8, 4, 4},
	}
	for _, pt := range pts {
		hc := hw.PaperConfig()
		hc.P, hc.PNLs, hc.RSCs = pt.p, pt.pnls, pt.rscs
		chip := hw.Chip(hc)

		sc := sim.PaperConfig()
		sc.P, sc.PNLs, sc.RSCs = pt.p, pt.pnls, pt.rscs
		enc := sc.EncodeEncrypt(1)
		dec := sc.DecodeDecrypt(1)

		mark := ""
		if pt.p == 8 && pt.pnls == 4 && pt.rscs == 2 {
			mark = " <- ships"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", pt.p), fmt.Sprintf("%d", pt.pnls), fmt.Sprintf("%d", pt.rscs),
			f2(chip.AreaMM2), f2(chip.PowerW), f3(enc.TimeMS), f3(dec.TimeMS),
			f2(chip.AreaMM2*enc.TimeMS) + mark,
		})
	}
	r.Notes = append(r.Notes,
		"area x delay (mm^2 x ms) is the efficiency figure of merit; DRAM-bound points stop improving in delay",
		"not a paper figure — extension-scope DSE per DESIGN.md")
	return r
}
