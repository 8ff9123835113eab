package ckks

import (
	"math"
	"math/cmplx"
)

// Precision measurement utilities: quantify the bits a message retains
// through client pipelines — the library-level counterpart of the paper's
// Fig. 3c methodology, usable on live keys and ciphertexts.

// PrecisionStats summarizes slot-wise error between a reference message
// and a processed one.
type PrecisionStats struct {
	MeanErr   float64
	MaxErr    float64
	MeanBits  float64 // -log2(MeanErr)
	WorstBits float64 // -log2(MaxErr)
	Slots     int
}

// precisionCeiling caps reported bits when the error underflows
// (bit-identical results).
const precisionCeiling = 60.0

// MeasurePrecision compares two slot vectors.
func MeasurePrecision(want, got []complex128) PrecisionStats {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	var sum, maxv float64
	for i := 0; i < n; i++ {
		e := cmplx.Abs(got[i] - want[i])
		sum += e
		if e > maxv {
			maxv = e
		}
	}
	s := PrecisionStats{MeanErr: sum / float64(n), MaxErr: maxv, Slots: n}
	s.MeanBits = clampBits(-math.Log2(s.MeanErr))
	s.WorstBits = clampBits(-math.Log2(s.MaxErr))
	return s
}

func clampBits(b float64) float64 {
	if math.IsInf(b, 1) || b > precisionCeiling {
		return precisionCeiling
	}
	return b
}

// NoiseBudget estimates the remaining noise budget of a ciphertext in
// bits: log2(q_ℓ-chain headroom / expected noise). It is an analytic
// estimate from the parameter set and the operation count, not a
// measurement — useful for deciding when a ciphertext can still be
// rescaled or must return to the client.
type NoiseBudget struct {
	Level        int
	LogQ         float64 // bits of remaining modulus
	LogScale     float64
	LogNoise     float64 // estimated noise magnitude in bits
	HeadroomBits float64 // LogQ - 1 - LogScale - LogNoise
}

// EstimateNoiseBudget computes the budget for a fresh ciphertext at the
// given level after `mults` plaintext multiplications (each multiplying
// noise by roughly Δ) and `adds` additions.
func (p *Parameters) EstimateNoiseBudget(level, mults, adds int) NoiseBudget {
	nb := NoiseBudget{Level: level, LogScale: float64(p.LogScale)}
	for i := 0; i < level; i++ {
		nb.LogQ += math.Log2(float64(p.Ring().Basis.Moduli[i].Q))
	}
	// Fresh noise: ‖e·u + e0 + e1·s‖ ≈ σ·sqrt(2N/3·σ + HW) — log-domain
	// approximation with the standard σ = 3.2.
	n := float64(p.N())
	fresh := 3.2 * (math.Sqrt(2*n/3)*3.2 + math.Sqrt(float64(max(p.HW, 1))))
	noise := fresh * math.Pow(2, float64(p.LogScale*mults)) // pt-mult growth
	noise *= math.Sqrt(float64(adds + 1))
	nb.LogNoise = math.Log2(noise)
	nb.HeadroomBits = nb.LogQ - 1 - nb.LogScale*float64(mults+1) - math.Log2(fresh*math.Sqrt(float64(adds+1)))
	return nb
}

// Decryptable reports whether the estimated message+noise still fits the
// level's modulus (the go/no-go a scheduler needs before DropLevel).
func (nb NoiseBudget) Decryptable() bool { return nb.HeadroomBits > 0 }
