package ckks

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ring"
)

// Evaluation-key wire format. Like the other key blobs (keyserialize.go)
// it embeds the full ParamSpec, so a server can bootstrap from the bytes
// alone, and packs residues at PackedWordBits. Unlike public/secret keys
// it carries a sub-header describing the set's shape — group size, depth
// cap, which rotation steps are present — because the receiver must know
// the blob's geometry before allocating anything.
//
// Layout (little-endian), after the 14-byte key header (kind 'E'):
//
//	gadget u8 (1 = hybrid; anything else is rejected — 0 tagged the
//	  retired digit gadget) | digits u8 (the group size α; must equal
//	  the spec's specialLimbs) | maxLevel u8 |
//	flags u8 (bit0 relin, bit1 conjugate) |
//	domain u8 (must be 1: NTT, this spec's tables) | rotCount u16 |
//	rotCount × step u32 (strictly ascending, in [1, N/2)) |
//	packed residues, PackedWordBits each, NTT domain:
//	  keys in order relin?, conjugate?, rotations (ascending step);
//	  per key: for j < ⌈maxLevel/α⌉: H0[j] then H1[j], each with
//	  maxLevel+α limbs over the extended QP basis.
//
// Switching keys are generated and consumed in the NTT domain, and they
// travel in it: the rows are packed as they sit in memory and used as
// unpacked. A coefficient-domain wire cost one INTT per row on export and
// one NTT per row on import — 26 208 limb transforms per PN14 bootstrap
// key set. The NTT domain is a function of the embedded spec (its primes
// fix the tables), so the bytes stay self-describing. Domain byte 0 marks
// the retired coefficient layout every blob exported before the switch
// carries: it is rejected with a message that says to re-export, like the
// retired gadget tag; the gadget byte guards the decomposition geometry —
// a blob replayed at a parameter set without special primes is a typed
// error, never a panic or a silent mis-parse.
const (
	// KeyKindEval is the evaluation-key discriminator at byte 5.
	KeyKindEval byte = 'E'

	evalFlagRelin = 1 << 0
	evalFlagConj  = 1 << 1

	// evalDomainNTT is the only accepted domain byte: residues in the
	// embedded spec's NTT domain.
	evalDomainNTT = 1

	// evalMaxRotations bounds the rotation count a header may claim (the
	// step space itself is < N/2 ≤ 2^16, and the u16 count field matches).
	evalMaxRotations = 1 << 16
)

// EvalKeyInfo describes an evaluation-key blob's geometry — everything
// needed to compute its exact wire size from the header alone. Digits
// carries the group size α (which the embedded spec's SpecialLimbs must
// match).
type EvalKeyInfo struct {
	Gadget   Gadget
	Digits   int
	MaxLevel int
	HasRelin bool
	HasConj  bool
	Steps    []int // ascending, normalized
}

// keyCount is the number of switching keys the blob carries.
func (info EvalKeyInfo) keyCount() int {
	n := len(info.Steps)
	if info.HasRelin {
		n++
	}
	if info.HasConj {
		n++
	}
	return n
}

func evalHeaderLen(rotCount int) int {
	return keyHeaderLen() + 1 + 1 + 1 + 1 + 1 + 2 + 4*rotCount
}

// EvalKeyWireBytes computes the exact blob size implied by a spec and an
// info block — from headers alone, without building Parameters, so
// wire-facing constructors can reject length-mismatched blobs before
// paying for prime generation or any payload-proportional allocation.
// Returns 0 for a geometry the spec cannot host (a non-hybrid tag, or a
// spec without special primes) so length checks against it always fail.
func EvalKeyWireBytes(spec ParamSpec, info EvalKeyInfo) int {
	n := 1 << uint(spec.LogN)
	alpha := spec.SpecialLimbs
	if info.Gadget != GadgetHybrid || alpha < 1 || info.Digits != alpha {
		return 0
	}
	dnum := (info.MaxLevel + alpha - 1) / alpha
	limbTotal := dnum * 2 * (info.MaxLevel + alpha) // packed limbs across one key's polynomials
	return evalHeaderLen(len(info.Steps)) + (info.keyCount()*limbTotal*n*PackedWordBits+7)/8
}

// EvaluationKeyWireBytes reports the packed wire size of a key set at the
// given depth with rotCount rotation steps (+ conjugation when conj).
func (p *Parameters) EvaluationKeyWireBytes(maxLevel, rotCount int, conj bool) int {
	return EvalKeyWireBytes(p.Spec(), EvalKeyInfo{
		Gadget: GadgetHybrid, Digits: p.SpecialLimbs, MaxLevel: maxLevel,
		HasRelin: true, HasConj: conj, Steps: make([]int, rotCount),
	})
}

// ReadEvalKeyInfo parses and validates the headers of an evaluation-key
// blob, returning the embedded spec and geometry. It never allocates
// proportionally to attacker-claimed sizes (the steps slice is bounded by
// the actual bytes present).
//
// On error the returned info holds what was parsed so far. Its Gadget is
// GadgetHybrid unless the header got as far as a different tag — which is
// how the public API tells a retired-format blob (ErrGadgetUnsupported)
// from a corrupt one.
func ReadEvalKeyInfo(data []byte) (ParamSpec, EvalKeyInfo, error) {
	info := EvalKeyInfo{Gadget: GadgetHybrid}
	spec, kind, err := ReadKeySpec(data)
	if err != nil {
		return ParamSpec{}, info, err
	}
	if kind != KeyKindEval {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: kind 0x%02x, want 0x%02x", kind, KeyKindEval)
	}
	if len(data) < evalHeaderLen(0) {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: truncated sub-header")
	}
	off := keyHeaderLen()
	gadget := data[off]
	info.Digits = int(data[off+1])
	info.MaxLevel = int(data[off+2])
	flags := data[off+3]
	domain := data[off+4]
	rotCount := int(binary.LittleEndian.Uint16(data[off+5:]))

	info.Gadget = Gadget(gadget)
	if info.Gadget != GadgetHybrid {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: gadget tag 0x%02x, only 0x%02x (hybrid) is supported", gadget, byte(GadgetHybrid))
	}
	if flags&^byte(evalFlagRelin|evalFlagConj) != 0 {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: unknown flag bits 0x%02x", flags)
	}
	info.HasRelin = flags&evalFlagRelin != 0
	info.HasConj = flags&evalFlagConj != 0
	switch domain {
	case evalDomainNTT:
	case 0:
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: domain byte 0 tags the retired coefficient-domain layout; re-export the keys")
	default:
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: unknown domain byte 0x%02x, want 0x%02x (NTT)", domain, evalDomainNTT)
	}
	if info.Digits < 1 || info.Digits != spec.SpecialLimbs {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: group size %d does not match the embedded spec's %d special primes",
			info.Digits, spec.SpecialLimbs)
	}
	if info.MaxLevel < 1 || info.MaxLevel > spec.Limbs {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: depth %d not in [1, %d]", info.MaxLevel, spec.Limbs)
	}
	if rotCount >= evalMaxRotations {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: rotation count %d out of range", rotCount)
	}
	if len(data) < evalHeaderLen(rotCount) {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: truncated rotation table")
	}
	half := 1 << uint(spec.LogN-1)
	info.Steps = make([]int, rotCount)
	prev := 0
	for i := range info.Steps {
		s := int(binary.LittleEndian.Uint32(data[evalHeaderLen(i):]))
		if s <= prev || s >= half {
			return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: rotation step %d not ascending in [1, %d)", s, half)
		}
		info.Steps[i] = s
		prev = s
	}
	return spec, info, nil
}

// kskRows lists a switching key's residue rows in wire order: per group
// H0[j] then H1[j], each over the extended basis.
func kskRows(ksk *SwitchingKey) [][]uint64 {
	polys := make([]*ring.Poly, 0, 2*len(ksk.H0))
	for j := range ksk.H0 {
		polys = append(polys, ksk.H0[j], ksk.H1[j])
	}
	return polyRows(ksk.Level+ksk.Alpha, polys...)
}

// MarshalEvaluationKeySet serializes ks in the packed evaluation-key wire
// format. The encoding is canonical: rotation keys are ordered by
// ascending step, and unmarshal∘marshal is the identity on valid blobs.
func (p *Parameters) MarshalEvaluationKeySet(ks *EvaluationKeySet) ([]byte, error) {
	if ks == nil {
		return nil, fmt.Errorf("ckks: marshal eval keys: nil set")
	}
	if p.LimbBits > PackedWordBits {
		return nil, fmt.Errorf("ckks: packed encoding needs limbs ≤ %d bits", PackedWordBits)
	}
	if ks.MaxLevel < 1 || ks.MaxLevel > p.MaxLevel() {
		return nil, fmt.Errorf("ckks: marshal eval keys: depth %d out of range", ks.MaxLevel)
	}
	if p.SpecialLimbs == 0 {
		return nil, fmt.Errorf("ckks: marshal eval keys: parameters without special primes")
	}
	steps := ks.Steps()
	info := EvalKeyInfo{
		Gadget: GadgetHybrid, Digits: p.SpecialLimbs, MaxLevel: ks.MaxLevel,
		HasRelin: ks.Rlk != nil, HasConj: ks.Conj != nil, Steps: steps,
	}

	var ksks []*SwitchingKey
	if ks.Rlk != nil {
		ksks = append(ksks, ks.Rlk.K)
	}
	if ks.Conj != nil {
		ksks = append(ksks, ks.Conj.K)
	}
	for _, s := range steps {
		if s < 1 || s >= p.Slots() {
			return nil, fmt.Errorf("ckks: marshal eval keys: rotation step %d out of range", s)
		}
		ksks = append(ksks, ks.Rot[s].K)
	}
	dnum := p.DnumAt(ks.MaxLevel)
	for _, ksk := range ksks {
		if ksk.Level != ks.MaxLevel {
			return nil, fmt.Errorf("ckks: marshal eval keys: key level %d does not match set level %d", ksk.Level, ks.MaxLevel)
		}
		if ksk.Alpha != info.Digits || len(ksk.H0) != dnum || len(ksk.H1) != dnum {
			return nil, fmt.Errorf("ckks: marshal eval keys: key rows (α %d, %d groups) do not match set geometry (α %d, %d groups)",
				ksk.Alpha, len(ksk.H0), info.Digits, dnum)
		}
	}

	out := make([]byte, EvalKeyWireBytes(p.Spec(), info))
	if err := p.putKeyHeader(out, KeyKindEval); err != nil {
		return nil, err
	}
	off := keyHeaderLen()
	out[off] = byte(info.Gadget)
	out[off+1] = byte(info.Digits)
	out[off+2] = byte(info.MaxLevel)
	var flags byte
	if info.HasRelin {
		flags |= evalFlagRelin
	}
	if info.HasConj {
		flags |= evalFlagConj
	}
	out[off+3] = flags
	out[off+4] = evalDomainNTT
	binary.LittleEndian.PutUint16(out[off+5:], uint16(len(steps)))
	for i, s := range steps {
		binary.LittleEndian.PutUint32(out[evalHeaderLen(i):], uint32(s))
	}

	// One lane dispatch per key, one row task per limb row.
	rqp := p.RingQPAt(ks.MaxLevel)
	body := out[evalHeaderLen(len(steps)):]
	keyBytes := packedBytes(2*dnum*rqp.K(), p.N())
	for i, ksk := range ksks {
		if err := packRows(rqp, body[i*keyBytes:(i+1)*keyBytes], kskRows(ksk)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalEvaluationKeySet reverses MarshalEvaluationKeySet, validating
// the embedded spec against p, the blob length before any
// payload-proportional allocation, and every residue against the modulus
// chain.
func (p *Parameters) UnmarshalEvaluationKeySet(data []byte) (*EvaluationKeySet, error) {
	spec, info, err := ReadEvalKeyInfo(data)
	if err != nil {
		return nil, err
	}
	if spec != p.Spec() {
		return nil, fmt.Errorf("ckks: unmarshal eval keys: embedded spec %+v does not match parameters", spec)
	}
	// ReadEvalKeyInfo pinned 1 ≤ Digits == spec.SpecialLimbs; the spec
	// equality above transfers that to p.
	if !info.HasRelin {
		return nil, fmt.Errorf("ckks: unmarshal eval keys: set carries no relinearization key")
	}
	if len(data) != EvalKeyWireBytes(spec, info) {
		return nil, fmt.Errorf("ckks: unmarshal eval keys: blob length %d does not match header geometry", len(data))
	}

	// One lane dispatch per key, in wire order: each row task unpacks and
	// range-checks its row, and at most one rejected key is ever allocated.
	body := data[evalHeaderLen(len(info.Steps)):]
	rqp := p.RingQPAt(info.MaxLevel)
	dnum := p.DnumAt(info.MaxLevel)
	keyBytes := packedBytes(2*dnum*rqp.K(), p.N())
	readKsk := func() (*SwitchingKey, error) {
		ksk := &SwitchingKey{Alpha: info.Digits, Level: info.MaxLevel}
		ksk.H0 = make([]*ring.Poly, dnum)
		ksk.H1 = make([]*ring.Poly, dnum)
		for j := 0; j < dnum; j++ {
			ksk.H0[j], ksk.H1[j] = rqp.NewPoly(), rqp.NewPoly()
			ksk.H0[j].IsNTT, ksk.H1[j].IsNTT = true, true
		}
		if err := unpackRows(rqp, body[:keyBytes], kskRows(ksk)); err != nil {
			return nil, fmt.Errorf("ckks: unmarshal eval keys: %w", err)
		}
		body = body[keyBytes:]
		return ksk, nil
	}

	ks := &EvaluationKeySet{Rot: make(map[int]*RotationKey), MaxLevel: info.MaxLevel}
	rlk, err := readKsk()
	if err != nil {
		return nil, err
	}
	ks.Rlk = &RelinearizationKey{K: rlk}
	if info.HasConj {
		g := p.GaloisElementConjugate()
		k, err := readKsk()
		if err != nil {
			return nil, err
		}
		ks.Conj = &RotationKey{G: g, K: k, Perm: p.Ring().GaloisPermNTT(g)}
	}
	for _, s := range info.Steps {
		g := p.GaloisElement(s)
		k, err := readKsk()
		if err != nil {
			return nil, err
		}
		ks.Rot[s] = &RotationKey{G: g, K: k, Perm: p.Ring().GaloisPermNTT(g)}
	}
	return ks, nil
}
