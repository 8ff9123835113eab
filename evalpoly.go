package abcfhe

import (
	"fmt"
	"math"

	"repro/internal/ckks"
	"repro/internal/fftfp"
)

// Homomorphic polynomial evaluation (the BSGS Chebyshev schedule of
// internal/ckks/evalpoly.go) and EvalMod — the sine-approximation modular
// reduction a bootstrap applies after CoeffsToSlots. Both follow the
// LinearTransform pattern: an immutable precompiled object built once
// (Server.NewPolyEval / Server.NewEvalMod, all misuse reported as typed
// errors) and a key-gated apply (Server.EvalPoly / Server.EvalMod).

// Coefficient and interval bounds for NewPolyEval. The exact-scale
// constant encoder handles any float64, but wildly scaled inputs turn
// into precision-free evaluations long before they overflow — so the
// public surface rejects them up front.
const (
	maxPolyDegree    = 1024
	maxPolyInterval  = 1 << 20 // |lo|, |hi| bound
	minPolyIntervalW = 1.0 / (1 << 16)
	maxPolyChebCoeff = 1 << 40 // after the interval remap
	maxEvalModDegree = 63
)

// PolyEval is a polynomial compiled for homomorphic evaluation: the
// monomial coefficients converted to the Chebyshev basis of [lo, hi] and
// scheduled as a baby-step/giant-step product tree (≈√degree relinearized
// ct×ct products, log-depth). Build with Server.NewPolyEval; immutable
// and safe to share across goroutines and calls.
type PolyEval struct {
	plan *ckks.EvalPolyPlan
}

// Degree is the (trailing-zero-trimmed) polynomial degree.
func (pe *PolyEval) Degree() int { return pe.plan.Degree() }

// Level is the input level the evaluation consumes ciphertexts at.
func (pe *PolyEval) Level() int { return pe.plan.Level() }

// Depth is the number of limbs the evaluation spends: the output lands at
// Level() − Depth(), at ≈ the preset's working scale.
func (pe *PolyEval) Depth() int { return pe.plan.Depth() }

// KeyLevel is the highest level a relinearized product runs at — the
// evaluation-key set's MaxLevel must cover it (EvalKeyConfig.MaxLevel).
func (pe *PolyEval) KeyLevel() int { return pe.plan.KeyLevel() }

// Interval is the approximation interval the polynomial was compiled for.
// Slot values must stay inside it for the advertised precision (the
// Chebyshev basis grows exponentially outside).
func (pe *PolyEval) Interval() (lo, hi float64) { return pe.plan.Interval() }

// NewPolyEval compiles Σ coeffs[i]·xⁱ over the interval [lo, hi] for
// homomorphic evaluation, consuming its input at `level` (0 = the minimum
// feasible level). The schedule prefers the ≈√degree baby block and
// narrows it — trading extra ct×ct products for depth — when the level is
// too shallow for the preferred one. Requirements, all typed errors:
// degree in [1, 1024] after trimming trailing zeros, every coefficient
// finite, a finite interval with lo < hi (width ≥ 2⁻¹⁶, bounds ≤ 2²⁰),
// Chebyshev-basis coefficients ≤ 2⁴⁰ after the remap, and level within
// [floor, MaxLevel].
func (s *Server) NewPolyEval(coeffs []complex128, lo, hi float64, level int) (*PolyEval, error) {
	d := len(coeffs) - 1
	for d > 0 && coeffs[d] == 0 {
		d--
	}
	if d < 1 {
		return nil, fmt.Errorf("%w: polynomial degree must be ≥ 1 after trimming trailing zeros", ErrInvalidSpan)
	}
	if d > maxPolyDegree {
		return nil, fmt.Errorf("%w: degree %d exceeds the cap %d", ErrInvalidSpan, d, maxPolyDegree)
	}
	if err := validateMessage(s.params, coeffs[:d+1]); err != nil {
		return nil, err
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || !(hi > lo) {
		return nil, fmt.Errorf("%w: interval [%g, %g] must be finite with lo < hi", ErrInvalidSpan, lo, hi)
	}
	if hi-lo < minPolyIntervalW || math.Max(math.Abs(lo), math.Abs(hi)) > maxPolyInterval {
		return nil, fmt.Errorf("%w: interval [%g, %g] outside the supported range (width ≥ 2^-16, bounds ≤ 2^20)",
			ErrInvalidSpan, lo, hi)
	}
	r := s.params.RescalesPerLevel()
	floor := ckks.EvalPolyLevelFloor(d, r)
	if floor > s.params.MaxLevel() {
		return nil, fmt.Errorf("%w: degree %d needs level ≥ %d, parameter depth is %d",
			ErrLevelOutOfRange, d, floor, s.params.MaxLevel())
	}
	if level != 0 && (level < floor || level > s.params.MaxLevel()) {
		return nil, fmt.Errorf("%w: level %d not in [%d, %d] for degree %d",
			ErrLevelOutOfRange, level, floor, s.params.MaxLevel(), d)
	}
	plan := s.params.NewEvalPolyPlan(coeffs[:d+1], lo, hi, level)
	if plan.MaxChebAbs() > maxPolyChebCoeff {
		return nil, fmt.Errorf("%w: Chebyshev coefficient magnitude %g exceeds 2^40 after the interval remap",
			ErrInvalidConstant, plan.MaxChebAbs())
	}
	return &PolyEval{plan: plan}, nil
}

// EvalPoly applies a compiled polynomial slot-wise. Ciphertexts above the
// plan's level are dropped to it first; below it is an error. The result
// lands Depth() levels lower at ≈ the working scale. Key-gated: the set
// must carry the relinearization key at depth ≥ KeyLevel().
func (s *Server) EvalPoly(ct *Ciphertext, pe *PolyEval, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := validateCiphertext(s.params, ct); err != nil {
		return nil, err
	}
	if err := validateKeyDepth(evk, "product level", pe.KeyLevel()); err != nil {
		return nil, err
	}
	if evk.set.Rlk == nil {
		return nil, fmt.Errorf("%w: set carries no relinearization key", ErrEvaluationKeyMissing)
	}
	in := ct.ct
	if in.Level < pe.Level() {
		return nil, fmt.Errorf("%w: ciphertext at level %d, polynomial compiled at %d",
			ErrLevelOutOfRange, in.Level, pe.Level())
	}
	if in.Level > pe.Level() {
		in = s.eval.DropLevel(in, pe.Level())
	}
	return wrap(s.params, s.eval.EvalPoly(in, pe.plan, evk.set.Rlk)), nil
}

// EvalPolyDepth returns the limbs a degree-`degree` evaluation spends on
// this parameter set at the preferred schedule — the number to budget in
// EvalKeyConfig.MaxLevel and DFT level planning. A PolyEval compiled at a
// shallow level may commit to a narrower, deeper schedule; its Depth()
// is the authoritative value.
func (s *Server) EvalPolyDepth(degree int) int {
	return ckks.EvalPolyDepth(degree, s.params.RescalesPerLevel())
}

// EvalPolyMinLevel returns the minimum feasible input level for the
// degree on this parameter set (the depth-optimal narrow schedule plus
// the output floor).
func (s *Server) EvalPolyMinLevel(degree int) int {
	return ckks.EvalPolyLevelFloor(degree, s.params.RescalesPerLevel())
}

// ---------------------------------------------------------------------
// EvalMod: the sine-approximation modular reduction
// ---------------------------------------------------------------------

// EvalModConfig selects the sine surrogate EvalMod compiles: the
// degree-`Degree` Taylor polynomial of Scaling·sin(2πx/Range), evaluated
// over [−Range, Range] — the approximate mod-Range reduction a bootstrap
// applies to each CoeffsToSlots output. The plaintext oracle is
// fftfp.SinSurrogate: with the default Scaling the two evaluate the
// identical polynomial, so homomorphic-vs-oracle error measures FHE noise
// alone. Zero values select the defaults.
type EvalModConfig struct {
	// Degree of the Taylor kernel, in [1, 63]. Default 15 — the base sine
	// degree production CKKS bootstraps use (and the degree the fftfp
	// mantissa-sweep surrogate is measured with).
	Degree int
	// Range is the modulus analogue: the reduction approximates
	// (Range/2π)·sin(2πx/Range). Default 8, matching the fftfp surrogate.
	// The Taylor form is accurate as a *sine* approximation for
	// |x| ≲ Range/2; the contract pinned by tests is the polynomial
	// itself, which the oracle shares exactly.
	Range float64
	// Scaling multiplies the output. Default Range/(2π) — the exact
	// surrogate shape.
	Scaling float64
	// Level the evaluation consumes its input at (0 = minimum feasible).
	// After CoeffsToSlots, set this to the DFT's MidLevel().
	Level int
}

// EvalMod is a compiled sine-surrogate modular reduction. Build with
// Server.NewEvalMod; immutable and shareable.
type EvalMod struct {
	pe      *PolyEval
	degree  int
	rng     float64
	scaling float64
}

// Degree is the compiled Taylor degree.
func (m *EvalMod) Degree() int { return m.degree }

// Range is the modulus analogue the reduction was compiled for.
func (m *EvalMod) Range() float64 { return m.rng }

// Scaling is the output multiplier.
func (m *EvalMod) Scaling() float64 { return m.scaling }

// Level is the input level the evaluation consumes ciphertexts at.
func (m *EvalMod) Level() int { return m.pe.Level() }

// Depth is the number of limbs the evaluation spends.
func (m *EvalMod) Depth() int { return m.pe.Depth() }

// KeyLevel is the highest level a relinearized product runs at.
func (m *EvalMod) KeyLevel() int { return m.pe.KeyLevel() }

// NewEvalMod compiles the sine-surrogate reduction selected by cfg.
func (s *Server) NewEvalMod(cfg EvalModConfig) (*EvalMod, error) {
	degree := cfg.Degree
	if degree == 0 {
		degree = 15
	}
	if degree < 1 || degree > maxEvalModDegree {
		return nil, fmt.Errorf("%w: EvalMod degree %d not in [1, %d]", ErrInvalidSpan, degree, maxEvalModDegree)
	}
	rng := cfg.Range
	if rng == 0 {
		rng = 8
	}
	if math.IsNaN(rng) || math.IsInf(rng, 0) || rng < minPolyIntervalW || rng > maxPolyInterval {
		return nil, fmt.Errorf("%w: EvalMod range %g outside [2^-16, 2^20]", ErrInvalidSpan, rng)
	}
	scaling := cfg.Scaling
	if scaling == 0 {
		scaling = rng / (2 * math.Pi)
	}
	if math.IsNaN(scaling) || math.IsInf(scaling, 0) {
		return nil, fmt.Errorf("%w: EvalMod scaling %g is not finite", ErrInvalidConstant, scaling)
	}
	// mono[k] = Scaling·s_k·(2π/Range)^k ⇒ p(x) = Scaling·P_sin(2πx/Range).
	sin := fftfp.SinTaylorCoeffs(degree)
	mono := make([]complex128, degree+1)
	pw := 1.0
	for k, sk := range sin {
		mono[k] = complex(scaling*sk*pw, 0)
		pw *= 2 * math.Pi / rng
	}
	pe, err := s.NewPolyEval(mono, -rng, rng, cfg.Level)
	if err != nil {
		return nil, err
	}
	return &EvalMod{pe: pe, degree: pe.Degree(), rng: rng, scaling: scaling}, nil
}

// EvalMod applies the compiled reduction slot-wise — after CoeffsToSlots,
// once per coefficient half. Same level/key semantics as EvalPoly.
func (s *Server) EvalMod(ct *Ciphertext, m *EvalMod, evk *EvaluationKeys) (*Ciphertext, error) {
	return s.EvalPoly(ct, m.pe, evk)
}
