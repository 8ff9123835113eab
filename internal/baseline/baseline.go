// Package baseline provides the comparison points of the paper's
// evaluation: the CPU running Lattigo, the prior client-side accelerators
// ([3] RACE, [10] Di Matteo et al., [22] ALOHA-HE, [34] Wang et al.), and
// the server-side accelerator ([9] Trinity) used in Fig. 1.
//
// The paper compares against *reported numbers* of prior work under two
// normalizations (§V-C): frequencies are scaled to ABC-FHE's 600 MHz, and
// designs that do not support bootstrappable parameters have their latency
// scaled by the proportion of operations. We reproduce exactly that
// methodology. Where a prior work's absolute latency is not recoverable
// from public material, the paper's published speed-up ratios against
// ABC-FHE serve as the literature anchor — each entry is labeled with its
// provenance so no anchored number is mistaken for a measurement.
package baseline

// Provenance tags how a latency figure was obtained.
type Provenance string

const (
	// Simulated: produced by internal/sim (our cycle-level model).
	Simulated Provenance = "simulated"
	// PaperAnchored: reconstructed from the paper's published speed-up
	// ratios applied to our simulated ABC-FHE latency.
	PaperAnchored Provenance = "paper-anchored"
)

// Point is one comparison system's latency for one operation.
type Point struct {
	System     string
	Op         string // "enc" (encode+encrypt) or "dec" (decode+decrypt)
	LatencyMS  float64
	Provenance Provenance
	Note       string
}

// Paper-published speed-ups of ABC-FHE (§V-C / Fig. 5a): the ratios that
// define the anchored baselines.
const (
	PaperSpeedupEncVsCPU  = 1112.0
	PaperSpeedupDecVsCPU  = 963.0
	PaperSpeedupEncVsSOTA = 214.0 // vs. best prior accelerator ([34]/[22])
	PaperSpeedupDecVsSOTA = 82.0
)

// Fig. 1's published execution-time shares for the ResNet20-FHE workload:
// with the SOTA client accelerator [34] and server accelerator [9],
// client-side work is 69.4% of total; the server side is 30.6%.
const (
	PaperClientShareSOTA = 0.694
	PaperServerShareSOTA = 0.306
)

// AnchoredSet reconstructs the Fig. 5a comparison around a simulated
// ABC-FHE latency pair (milliseconds).
func AnchoredSet(abcEncMS, abcDecMS float64) []Point {
	return []Point{
		{"CPU (i7-12700, Lattigo, 1 core)", "enc", abcEncMS * PaperSpeedupEncVsCPU, PaperAnchored,
			"paper: 1112x speed-up for encoding+encryption"},
		{"CPU (i7-12700, Lattigo, 1 core)", "dec", abcDecMS * PaperSpeedupDecVsCPU, PaperAnchored,
			"paper: 963x speed-up for decoding+decryption"},
		{"SOTA accel [34]/[22] (normalized)", "enc", abcEncMS * PaperSpeedupEncVsSOTA, PaperAnchored,
			"paper: 214x over the best prior client accelerator"},
		{"SOTA accel [34]/[22] (normalized)", "dec", abcDecMS * PaperSpeedupDecVsSOTA, PaperAnchored,
			"paper: 82x over the best prior client accelerator"},
		{"ABC-FHE (this work)", "enc", abcEncMS, Simulated, "internal/sim cycle model"},
		{"ABC-FHE (this work)", "dec", abcDecMS, Simulated, "internal/sim cycle model"},
	}
}

// NormalizeFrequency applies the paper's frequency normalization: latency
// measured at fromMHz rescaled to toMHz (cycle count preserved).
func NormalizeFrequency(latencyMS, fromMHz, toMHz float64) float64 {
	return latencyMS * fromMHz / toMHz
}

// ScaleByOpProportion applies the paper's second normalization: a design
// evaluated on smaller parameters has its latency scaled by the ratio of
// operation counts (ops at the target parameters / ops it ran).
func ScaleByOpProportion(latencyMS, opsRan, opsTarget float64) float64 {
	return latencyMS * opsTarget / opsRan
}

// Speedup is a convenience: baseline over candidate.
func Speedup(baselineMS, candidateMS float64) float64 {
	return baselineMS / candidateMS
}

// Fig1Breakdown models the Fig. 1 stacked bars: end-to-end ResNet20-FHE
// time split into client encode/encrypt, client decode/decrypt, and
// server-side homomorphic evaluation, for three client configurations.
type Fig1Breakdown struct {
	Label       string
	ClientEncMS float64
	ClientDecMS float64
	ServerMS    float64
	ClientShare float64
}

// Fig1 reconstructs the breakdown. The workload (ResNet20 over FHE)
// requires nCt ciphertext round trips; serverMS is the published
// server-side time anchor for the whole inference, derived from the
// paper's 30.6%/69.4% split against the SOTA client.
func Fig1(abcEncMS, abcDecMS float64, nCt int) []Fig1Breakdown {
	n := float64(nCt)
	sotaEnc := abcEncMS * PaperSpeedupEncVsSOTA * n
	sotaDec := abcDecMS * PaperSpeedupDecVsSOTA * n
	cpuEnc := abcEncMS * PaperSpeedupEncVsCPU * n
	cpuDec := abcDecMS * PaperSpeedupDecVsCPU * n
	// Server time from the published share: server = client_SOTA * (30.6/69.4).
	server := (sotaEnc + sotaDec) * PaperServerShareSOTA / PaperClientShareSOTA

	rows := []Fig1Breakdown{
		{"CPU client + [9] server", cpuEnc, cpuDec, server, 0},
		{"[34] client + [9] server", sotaEnc, sotaDec, server, 0},
		{"ABC-FHE client + [9] server", abcEncMS * n, abcDecMS * n, server, 0},
	}
	for i := range rows {
		c := rows[i].ClientEncMS + rows[i].ClientDecMS
		rows[i].ClientShare = c / (c + rows[i].ServerMS)
	}
	return rows
}
