package abcfhe

import (
	"fmt"
	"math"

	"repro/internal/ckks"
)

// Server is the keyless evaluation party: it expands compressed uploads
// (regenerating c1 from the embedded 16-byte seed) and performs public
// homomorphic operations. It never touches decryption-capable key
// material; everything it needs arrives as bytes — ciphertexts, and (for
// the ct×ct and rotation surface) an evaluation-key blob the KeyOwner
// exported with ExportEvaluationKeys.
//
// Two tiers of operations exist:
//
//   - Key-free: Add, Sub, Negate, MulConst, Rescale, DropLevel.
//   - Key-gated: Mul (ct×ct with relinearization), Rotate / RotateMany /
//     Conjugate (Galois automorphisms), InnerSum and DotPlain — each takes
//     an *EvaluationKeys imported from the owner's blob, and returns
//     ErrEvaluationKeyMissing when the set lacks the needed key.
//
// A Server is safe for concurrent use; EvaluationKeys are immutable after
// import and may be shared across goroutines.
type Server struct {
	party
	eval    *ckks.Evaluator
	encoder *ckks.Encoder // plaintext-side tooling for DotPlain (keyless)
}

// NewServer builds an evaluation party for the preset. The preset must
// match the one the clients' keys were generated for (a mismatch is
// detected when deserializing their ciphertexts).
func NewServer(preset Preset, opts ...Option) (*Server, error) {
	params, err := buildParams(preset, opts)
	if err != nil {
		return nil, err
	}
	return newServer(params), nil
}

// NewServerFromEvaluationKeys bootstraps a server from nothing but an
// evaluation-key blob: the embedded parameter spec reconstructs the
// parameter set (exactly like NewEncryptor does from a public-key blob)
// and the keys are imported in the same pass. This is the deployment
// story's server half — one file from the key owner and the machine can
// compute.
func NewServerFromEvaluationKeys(evalKeys []byte, opts ...Option) (*Server, *EvaluationKeys, error) {
	spec, _, err := readEvalKeyBlob(evalKeys)
	if err != nil {
		return nil, nil, err
	}
	params, err := buildParamsFromSpec(spec, opts)
	if err != nil {
		return nil, nil, wireErr(err)
	}
	srv := newServer(params)
	evk, err := srv.ImportEvaluationKeys(evalKeys)
	if err != nil {
		srv.Close() // release the private lane engine WithWorkers installed
		return nil, nil, err
	}
	return srv, evk, nil
}

func newServer(params *ckks.Parameters) *Server {
	return &Server{
		party:   party{params: params},
		eval:    ckks.NewEvaluator(params),
		encoder: ckks.NewEncoder(params),
	}
}

// EvaluationKeys is an imported evaluation-key set: the relinearization
// key plus the rotation keys the owner chose to export, validated against
// the server's parameter set. It carries no decryption capability, but it
// can transform the owner's ciphertexts — treat it as server-side
// material (see DESIGN.md on why encrypting devices never hold it).
type EvaluationKeys struct {
	set *ckks.EvaluationKeySet
}

// MaxLevel is the depth cap the keys were generated at: key-gated
// operations are limited to ciphertexts at level ≤ MaxLevel.
func (k *EvaluationKeys) MaxLevel() int { return k.set.MaxLevel }

// RotationSteps lists the rotation steps the set carries, ascending.
func (k *EvaluationKeys) RotationSteps() []int { return k.set.Steps() }

// HasConjugate reports whether the set carries the conjugation key.
func (k *EvaluationKeys) HasConjugate() bool { return k.set.Conj != nil }

// ImportEvaluationKeys parses an evaluation-key blob (from
// KeyOwner.ExportEvaluationKeys), validating the embedded parameter spec
// against the server's and every residue against the modulus chain, and
// regenerates the keys' uniform halves from the blob's mask seed. A
// blob from a different preset, a truncated or bit-flipped blob, or one
// whose layout byte is not 2 (seeded masks) — 0 and 1 are the retired
// full-row layouts of blobs exported before keys travelled in the NTT
// domain and before the masks moved to the seed, and the error says to
// re-export — all return ErrMalformedWire; a blob whose
// gadget tag is not the hybrid one (the retired digit-gadget format
// carried tag 0) additionally returns ErrGadgetUnsupported, from the
// header alone.
func (s *Server) ImportEvaluationKeys(data []byte) (*EvaluationKeys, error) {
	if _, _, err := readEvalKeyBlob(data); err != nil {
		return nil, err
	}
	set, err := s.params.UnmarshalEvaluationKeySet(data)
	if err != nil {
		return nil, wireErr(err)
	}
	return &EvaluationKeys{set: set}, nil
}

// ExpandCompressedUpload parses a seeded compressed upload and
// regenerates c1 from the embedded seed. No key material needed — this is
// the server half of the halved-upload protocol.
func (s *Server) ExpandCompressedUpload(data []byte) (*Ciphertext, error) {
	sct, err := s.params.UnmarshalSeeded(data)
	if err != nil {
		return nil, wireErr(err)
	}
	return s.params.Expand(sct), nil
}

// Add returns a + b (component-wise RLWE addition).
func (s *Server) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := s.validatePair(a, b); err != nil {
		return nil, err
	}
	return s.eval.Add(a, b), nil
}

// Sub returns a - b.
func (s *Server) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := s.validatePair(a, b); err != nil {
		return nil, err
	}
	return s.eval.Sub(a, b), nil
}

// Negate returns -ct.
func (s *Server) Negate(ct *Ciphertext) (*Ciphertext, error) {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return nil, err
	}
	return s.eval.Negate(ct), nil
}

// MulConst multiplies by a real constant via an integer approximation
// with compensating scale bookkeeping. The constant must be finite and
// |c| < 2^32 (the evaluator represents it as round(c·2^30), which must
// stay well inside uint64 — a NaN/Inf/huge value would otherwise hit an
// implementation-defined float→uint conversion and yield platform-
// dependent garbage with no error).
func (s *Server) MulConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return nil, err
	}
	if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) >= 1<<32 {
		return nil, fmt.Errorf("%w: %g not finite or |c| ≥ 2^32", ErrInvalidConstant, c)
	}
	return s.eval.MulConst(ct, c), nil
}

// Rescale divides the ciphertext by its last RNS prime, dropping one limb
// and dividing the scale accordingly.
func (s *Server) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return nil, err
	}
	if ct.Level < 2 {
		return nil, fmt.Errorf("%w: cannot rescale below level 1", ErrLevelOutOfRange)
	}
	return s.eval.Rescale(ct), nil
}

// DropLevel truncates the ciphertext to `level` limbs without changing
// the scale — how the paper's evaluation models server→client traffic
// (the server returns 2-limb ciphertexts to minimize client work, §V-B).
func (s *Server) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return nil, err
	}
	if level < 1 || level > ct.Level {
		return nil, fmt.Errorf("%w: target %d not in [1, %d]", ErrLevelOutOfRange, level, ct.Level)
	}
	return s.eval.DropLevel(ct, level), nil
}

// ---------------------------------------------------------------------
// Key-gated operations: ct×ct multiplication, rotations, reductions
// ---------------------------------------------------------------------

// validateEvalOperand is the shared prologue of the key-gated surface:
// structural ciphertext checks, a non-nil key set, and the depth cap.
func (s *Server) validateEvalOperand(ct *Ciphertext, evk *EvaluationKeys) error {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return err
	}
	if evk == nil {
		return fmt.Errorf("%w: no evaluation-key set provided", ErrEvaluationKeyMissing)
	}
	if ct.Level > evk.set.MaxLevel {
		return fmt.Errorf("%w: level %d exceeds the evaluation keys' depth %d (drop levels first, or export deeper keys)",
			ErrLevelOutOfRange, ct.Level, evk.set.MaxLevel)
	}
	return nil
}

// rotationKey resolves a normalized step, typed-error on absence.
func (s *Server) rotationKey(evk *EvaluationKeys, step int) (*ckks.RotationKey, error) {
	rk := evk.set.Rot[step]
	if rk == nil {
		return nil, fmt.Errorf("%w: rotation step %d not in the exported set %v",
			ErrEvaluationKeyMissing, step, evk.set.Steps())
	}
	return rk, nil
}

// Mul returns a ⊙ b — slot-wise ciphertext-ciphertext multiplication with
// relinearization (the degree-2 term is key-switched back to a standard
// RLWE pair using the set's relinearization key). The result's scale is
// the product of the operands' scales: follow with Rescale (once, or
// twice for the double-scale presets where Δ spans two limbs) before
// further multiplicative depth. When reducing a product with rotations
// (InnerSum), rotate first and rescale last — key-switch noise enters
// additively at the current scale, so it is cheapest while the scale is
// still Δ² (DotPlain sequences this way internally).
func (s *Server) Mul(a, b *Ciphertext, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := s.validatePair(a, b); err != nil {
		return nil, err
	}
	if err := s.validateEvalOperand(a, evk); err != nil {
		return nil, err
	}
	if evk.set.Rlk == nil {
		return nil, fmt.Errorf("%w: set carries no relinearization key", ErrEvaluationKeyMissing)
	}
	return s.eval.MulRelin(a, b, evk.set.Rlk), nil
}

// Rotate rotates the message slots by k (slot i of the result holds slot
// i+k of the input, cyclically over the Slots() ring; k may be negative).
// The set must carry the key for the normalized step.
func (s *Server) Rotate(ct *Ciphertext, k int, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := s.validateEvalOperand(ct, evk); err != nil {
		return nil, err
	}
	step := s.params.NormalizeStep(k)
	if step == 0 {
		return s.params.CopyCiphertext(ct), nil
	}
	rk, err := s.rotationKey(evk, step)
	if err != nil {
		return nil, err
	}
	return s.eval.RotateGalois(ct, rk), nil
}

// RotateMany rotates one ciphertext by every step at once on the hoisted
// path: the gadget digit decomposition (and its NTTs — the dominant cost
// of a rotation) is computed once and shared, so each additional step
// costs only an O(N)-per-limb permuted multiply-accumulate. Results are
// index-aligned with steps; a zero step yields a copy.
func (s *Server) RotateMany(ct *Ciphertext, steps []int, evk *EvaluationKeys) ([]*Ciphertext, error) {
	if err := s.validateEvalOperand(ct, evk); err != nil {
		return nil, err
	}
	// Resolve every key up front: a missing step errors before any work.
	rks := make([]*ckks.RotationKey, 0, len(steps))
	hoistIdx := make([]int, 0, len(steps))
	out := make([]*Ciphertext, len(steps))
	for i, k := range steps {
		step := s.params.NormalizeStep(k)
		if step == 0 {
			continue
		}
		rk, err := s.rotationKey(evk, step)
		if err != nil {
			return nil, err
		}
		rks = append(rks, rk)
		hoistIdx = append(hoistIdx, i)
	}
	for i, ct2 := range s.eval.RotateHoisted(ct, rks) {
		out[hoistIdx[i]] = ct2
	}
	for i := range out {
		if out[i] == nil {
			out[i] = s.params.CopyCiphertext(ct)
		}
	}
	return out, nil
}

// Conjugate applies slot-wise complex conjugation (the Galois element
// −1 mod 2N). The set must have been exported with Conjugate: true.
func (s *Server) Conjugate(ct *Ciphertext, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := s.validateEvalOperand(ct, evk); err != nil {
		return nil, err
	}
	if evk.set.Conj == nil {
		return nil, fmt.Errorf("%w: set carries no conjugation key", ErrEvaluationKeyMissing)
	}
	return s.eval.RotateGalois(ct, evk.set.Conj), nil
}

// InnerSum replaces every slot i with the sum of the span slots i..i+span−1
// (cyclically): after an element-wise Mul this turns slot 0 into a dot
// product. span must be a power of two in [1, Slots()], and the set must
// carry the power-of-two rotation ladder 1, 2, …, span/2 (see
// InnerSumRotations). Log-depth: log2(span) rotate-and-add steps. When
// combined with Mul, run InnerSum before Rescale — rotation noise is
// additive at the current scale (see Mul).
func (s *Server) InnerSum(ct *Ciphertext, span int, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := s.validateEvalOperand(ct, evk); err != nil {
		return nil, err
	}
	if span < 1 || span > s.params.Slots() || span&(span-1) != 0 {
		return nil, fmt.Errorf("%w: inner-sum span %d is not a power of two in [1, %d]",
			ErrInvalidSpan, span, s.params.Slots())
	}
	// Resolve the whole ladder before computing anything.
	for st := 1; st < span; st <<= 1 {
		if _, err := s.rotationKey(evk, st); err != nil {
			return nil, err
		}
	}
	if span == 1 {
		return s.params.CopyCiphertext(ct), nil
	}
	acc := ct
	for st := 1; st < span; st <<= 1 {
		rk := evk.set.Rot[st]
		acc = s.eval.Add(acc, s.eval.RotateGalois(acc, rk))
	}
	return acc, nil
}

// DotPlain computes the inner product of the encrypted vector with a
// plaintext weight vector — the encrypted half of a linear layer: the
// weights are encoded at the ciphertext's level and multiplied in
// slot-wise, the products are reduced with InnerSum over the next power
// of two ≥ len(weights) (the padding slots contribute only the weights'
// zeros), and one closing Rescale consumes the weights' scale. The
// rotations run *before* the rescale on purpose: key-switch noise is
// additive at the current scale, so it is spent while the scale is still
// ct.Scale·Δ. Slot 0 of the result holds Σ weights[j]·x[j]; the scale is
// ct.Scale·Δ/q_last. Requires 2 ≤ ct.Level ≤ evk.MaxLevel() and the
// rotation ladder for the padded span.
func (s *Server) DotPlain(ct *Ciphertext, weights []complex128, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := s.validateEvalOperand(ct, evk); err != nil {
		return nil, err
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("%w: empty weight vector", ErrInvalidSpan)
	}
	if err := validateMessage(s.params, weights); err != nil {
		return nil, err
	}
	if ct.Level < 2 {
		return nil, fmt.Errorf("%w: DotPlain rescales once, needs level ≥ 2", ErrLevelOutOfRange)
	}
	span := 1
	for span < len(weights) {
		span <<= 1
	}
	for st := 1; st < span; st <<= 1 {
		if _, err := s.rotationKey(evk, st); err != nil {
			return nil, err
		}
	}

	pt := s.encoder.EncodeAtLevel(weights, ct.Level)
	prod := s.eval.MulPlain(ct, pt)
	s.params.PutPlaintext(pt)
	sum, err := s.InnerSum(prod, span, evk)
	if err != nil {
		return nil, err
	}
	return s.eval.Rescale(sum), nil
}

// InnerSumRotations returns the power-of-two rotation-step ladder
// {1, 2, 4, …, span/2} that InnerSum over span slots consumes — pass it
// to EvalKeyConfig.Rotations when exporting keys.
func InnerSumRotations(span int) []int { return ckks.InnerSumRotations(span) }

// ---------------------------------------------------------------------
// Homomorphic linear transforms (BSGS) and the homomorphic DFT
// ---------------------------------------------------------------------

// LinearTransform is a plaintext matrix prepared for homomorphic
// mat×vec: the matrix's nonzero diagonals, pre-rotated for a fixed level
// and encoded on the first application, evaluated with blocked
// baby-step/giant-step over the double-hoisted rotation path (one shared
// digit decomposition for all baby steps, one per giant step —
// |babies|+|giants| key switches instead of one per diagonal, and one
// ModDown per giant block instead of one per rotation). Build with
// Server.NewLinearTransform; safe to share across goroutines and calls,
// the first application included.
type LinearTransform struct {
	lt *ckks.LinearTransform
}

// Level is the input level the transform consumes ciphertexts at.
func (t *LinearTransform) Level() int { return t.lt.Level }

// Depth is the number of rescales the evaluation performs: the output
// lands at Level() − Depth(), back at ≈ the input scale.
func (t *LinearTransform) Depth() int { return t.lt.Rescales }

// N1 is the baby-step block size the evaluation uses.
func (t *LinearTransform) N1() int { return t.lt.N1 }

// Rotations lists the rotation steps the evaluation needs keys for —
// export them via EvalKeyConfig.Rotations.
func (t *LinearTransform) Rotations() []int { return t.lt.Rotations() }

// NewLinearTransform prepares a plaintext matrix given by its nonzero
// diagonals: diags[d][r] = M[r][(r+d) mod Slots()] (d may be negative —
// indices are cyclic; vectors shorter than Slots() are zero-padded; every
// component must be finite). level is the input level the transform will
// consume ciphertexts at and must leave room for Depth() rescales.
// n1 = 0 picks the cost-optimal power-of-two block size; an explicit n1
// must be a power of two in [1, Slots()].
func (s *Server) NewLinearTransform(diags map[int][]complex128, level, n1 int) (*LinearTransform, error) {
	rescales := s.params.RescalesPerLevel()
	// Floor of 2·rescales: the pre-rescale product sits at scale
	// Δ·Δpt ≤ 2^(2·rescales·LimbBits) and must fit under Q_level.
	if level < 2*rescales || level > s.params.MaxLevel() {
		return nil, fmt.Errorf("%w: transform level %d not in [%d, %d] (needs %d rescales plus scale headroom)",
			ErrLevelOutOfRange, level, 2*rescales, s.params.MaxLevel(), rescales)
	}
	if n1 != 0 && (n1 < 1 || n1 > s.params.Slots() || n1&(n1-1) != 0) {
		return nil, fmt.Errorf("%w: block size %d is not a power of two in [1, %d]",
			ErrInvalidSpan, n1, s.params.Slots())
	}
	nonzero := false
	for d, v := range diags {
		if err := validateMessage(s.params, v); err != nil {
			return nil, fmt.Errorf("diagonal %d: %w", d, err)
		}
		for _, z := range v {
			if z != 0 {
				nonzero = true
				break
			}
		}
	}
	if !nonzero {
		return nil, fmt.Errorf("%w: transform has no nonzero diagonals", ErrInvalidSpan)
	}
	return &LinearTransform{lt: s.encoder.NewLinearTransform(diags, level, n1)}, nil
}

// resolveRotations gathers keys for every step of a transform's rotation
// set, erroring with ErrEvaluationKeyMissing before any compute happens.
func (s *Server) resolveRotations(evk *EvaluationKeys, steps []int) (map[int]*ckks.RotationKey, error) {
	rot := make(map[int]*ckks.RotationKey, len(steps))
	for _, st := range steps {
		rk, err := s.rotationKey(evk, st)
		if err != nil {
			return nil, err
		}
		rot[st] = rk
	}
	return rot, nil
}

// LinearTransform applies a prepared matrix to ct. Ciphertexts above
// the transform's level are dropped to it first (the usual way to feed a
// fresh ciphertext into a transform built at the keys' depth cap); below
// it is an error. The result lands Depth() levels below t.Level() at
// ≈ the input scale. The key set must carry every step in t.Rotations().
func (s *Server) LinearTransform(ct *Ciphertext, t *LinearTransform, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return nil, err
	}
	if evk == nil {
		return nil, fmt.Errorf("%w: no evaluation-key set provided", ErrEvaluationKeyMissing)
	}
	if ct.Level < t.Level() {
		return nil, fmt.Errorf("%w: ciphertext at level %d, transform encoded at %d",
			ErrLevelOutOfRange, ct.Level, t.Level())
	}
	if t.Level() > evk.set.MaxLevel {
		return nil, fmt.Errorf("%w: transform level %d exceeds the evaluation keys' depth %d",
			ErrLevelOutOfRange, t.Level(), evk.set.MaxLevel)
	}
	rot, err := s.resolveRotations(evk, t.Rotations())
	if err != nil {
		return nil, err
	}
	if ct.Level > t.Level() {
		ct = s.eval.DropLevel(ct, t.Level())
	}
	return s.eval.LinearTransform(ct, t.lt, rot), nil
}

// HomomorphicDFT is a built CoeffsToSlots/SlotsToCoeffs pipeline: the
// scheme's special FFT factored into Levels grouped sparse matrices per
// direction, each a LinearTransform at its scheduled level, encoded on
// its first application (a direction never applied is never encoded).
// Build with Server.NewHomomorphicDFT; shareable across goroutines.
type HomomorphicDFT struct {
	dft *ckks.HomomorphicDFT
}

// HomomorphicDFTConfig selects the depth/width trade-off of a
// homomorphic DFT.
type HomomorphicDFTConfig struct {
	// StartLevel is the level CoeffsToSlots consumes its input at; the
	// full round trip spends 2·Levels·depth-per-level limbs below it.
	StartLevel int
	// Levels is the number of grouped butterfly matrices per direction,
	// in [1, log2(Slots())]: more levels means sparser matrices (fewer
	// rotations and key switches each) at the cost of more depth.
	Levels int
}

// StartLevel is the level CoeffsToSlots consumes its input at.
func (d *HomomorphicDFT) StartLevel() int { return d.dft.StartLevel }

// MidLevel is the level the CoeffsToSlots outputs (and SlotsToCoeffs
// inputs) live at.
func (d *HomomorphicDFT) MidLevel() int { return d.dft.MidLevel }

// EndLevel is the level the SlotsToCoeffs output lands at.
func (d *HomomorphicDFT) EndLevel() int {
	return 2*d.dft.MidLevel - d.dft.StartLevel
}

// Rotations lists the rotation steps the full pipeline needs — export
// them (plus Conjugate: true) via EvalKeyConfig.
func (d *HomomorphicDFT) Rotations() []int { return d.dft.Rotations() }

// NewHomomorphicDFT factors the homomorphic DFT matrices; each is encoded
// on its first application.
func (s *Server) NewHomomorphicDFT(cfg HomomorphicDFTConfig) (*HomomorphicDFT, error) {
	logn := 0
	for 1<<uint(logn+1) <= s.params.Slots() {
		logn++
	}
	if cfg.Levels < 1 || cfg.Levels > logn {
		return nil, fmt.Errorf("%w: DFT levels %d not in [1, %d]", ErrInvalidSpan, cfg.Levels, logn)
	}
	r := s.params.RescalesPerLevel()
	depth := 2 * cfg.Levels * r
	// The deepest transform runs at StartLevel − (2·Levels−1)·r and, like
	// every LinearTransform, needs 2r levels under it: floor (2·Levels+1)·r.
	if cfg.StartLevel > s.params.MaxLevel() || cfg.StartLevel < depth+r {
		return nil, fmt.Errorf("%w: DFT start level %d not in [%d, %d] (round trip spends %d limbs)",
			ErrLevelOutOfRange, cfg.StartLevel, depth+r, s.params.MaxLevel(), depth)
	}
	return &HomomorphicDFT{dft: s.encoder.NewHomomorphicDFT(ckks.HomomorphicDFTConfig{
		StartLevel: cfg.StartLevel,
		Levels:     cfg.Levels,
	})}, nil
}

// CoeffsToSlots homomorphically exposes the plaintext polynomial's
// coefficients as slot values: the factored inverse DFT followed by the
// conjugate real/imaginary split. The returned pair holds, in
// bit-reversed slot order (see fftfp.BitReverse), the real-valued
// coefficient halves c_r and c_{r+Slots} of ct's underlying polynomial —
// the form a bootstrap's modular reduction consumes. ct is dropped to
// dft.StartLevel() if above it; both outputs land at dft.MidLevel(). The
// key set must carry dft.Rotations() and the conjugation key.
func (s *Server) CoeffsToSlots(ct *Ciphertext, dft *HomomorphicDFT, evk *EvaluationKeys) (re, im *Ciphertext, err error) {
	if err := validateCoeffCiphertext(s.params, ct); err != nil {
		return nil, nil, err
	}
	if evk == nil {
		return nil, nil, fmt.Errorf("%w: no evaluation-key set provided", ErrEvaluationKeyMissing)
	}
	if ct.Level < dft.StartLevel() {
		return nil, nil, fmt.Errorf("%w: ciphertext at level %d, DFT starts at %d",
			ErrLevelOutOfRange, ct.Level, dft.StartLevel())
	}
	if dft.StartLevel() > evk.set.MaxLevel {
		return nil, nil, fmt.Errorf("%w: DFT start level %d exceeds the evaluation keys' depth %d",
			ErrLevelOutOfRange, dft.StartLevel(), evk.set.MaxLevel)
	}
	if evk.set.Conj == nil {
		return nil, nil, fmt.Errorf("%w: CoeffsToSlots' conjugate split needs the conjugation key", ErrEvaluationKeyMissing)
	}
	rot, err := s.resolveRotations(evk, dft.Rotations())
	if err != nil {
		return nil, nil, err
	}
	if ct.Level > dft.StartLevel() {
		ct = s.eval.DropLevel(ct, dft.StartLevel())
	}
	re, im = s.eval.CoeffsToSlots(ct, dft.dft, rot, evk.set.Conj)
	return re, im, nil
}

// SlotsToCoeffs inverts CoeffsToSlots: recombines the two coefficient
// halves (one keyless multiply by i) and applies the factored forward
// DFT. re and im must both sit at dft.MidLevel() with matching scales;
// the result lands at dft.EndLevel() holding the original slot values.
func (s *Server) SlotsToCoeffs(re, im *Ciphertext, dft *HomomorphicDFT, evk *EvaluationKeys) (*Ciphertext, error) {
	if err := s.validatePair(re, im); err != nil {
		return nil, err
	}
	if evk == nil {
		return nil, fmt.Errorf("%w: no evaluation-key set provided", ErrEvaluationKeyMissing)
	}
	if re.Level != dft.MidLevel() {
		return nil, fmt.Errorf("%w: inputs at level %d, SlotsToCoeffs consumes level %d",
			ErrLevelOutOfRange, re.Level, dft.MidLevel())
	}
	if dft.MidLevel() > evk.set.MaxLevel {
		return nil, fmt.Errorf("%w: DFT mid level %d exceeds the evaluation keys' depth %d",
			ErrLevelOutOfRange, dft.MidLevel(), evk.set.MaxLevel)
	}
	rot, err := s.resolveRotations(evk, dft.Rotations())
	if err != nil {
		return nil, err
	}
	return s.eval.SlotsToCoeffs(re, im, dft.dft, rot), nil
}

// Slots, MaxLevel, Workers, Close, SerializeCiphertext,
// DeserializeCiphertext, CiphertextWireBytes and CompressedWireBytes are
// provided by the embedded party substrate (party.go).

func (s *Server) validatePair(a, b *Ciphertext) error {
	if err := validateCoeffCiphertext(s.params, a); err != nil {
		return err
	}
	if err := validateCoeffCiphertext(s.params, b); err != nil {
		return err
	}
	return validateSameLevelScale(a, b)
}
