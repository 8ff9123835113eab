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
//	layout u8 (must be 2: seeded masks, NTT domain) |
//	maskSeed [16]u8 | rotCount u16 |
//	rotCount × step u32 (strictly ascending, in [1, N/2)) |
//	packed residues, PackedWordBits each, NTT domain:
//	  keys in order relin?, conjugate?, rotations (ascending step);
//	  per key: H0[j] for j < ⌈maxLevel/α⌉, each with maxLevel+α limbs
//	  over the extended QP basis.
//
// Each switching-key row is (b_j, a_j) with a_j uniform. Key generation
// draws every a_j from the public mask seed (deriveEvalKeyMaskSeed of the
// owner's seed) on the key's own stream, so the blob carries the 16-byte
// seed in place of the a_j rows and the receiver regenerates them — half
// the bytes of a full-row blob, at one UniformPoly per row on import. The
// b_j rows travel as they sit in memory, in the NTT domain, which is a
// function of the embedded spec (its primes fix the tables), so the bytes
// stay self-describing. The errors e_j stay on the owner's secret seed:
// the blob lets anyone rebuild a_j, never e_j.
//
// Layout bytes 0 and 1 mark the retired formats — 0 the coefficient-domain
// full-row layout, 1 the NTT-domain full-row layout (no seed, a_j rows on
// the wire) — and are rejected from the header alone with a message that
// says to re-export, like the retired gadget tag; the gadget byte guards
// the decomposition geometry — a blob replayed at a parameter set without
// special primes is a typed error, never a panic or a silent mis-parse.
const (
	// KeyKindEval is the evaluation-key discriminator at byte 5.
	KeyKindEval byte = 'E'

	evalFlagRelin = 1 << 0
	evalFlagConj  = 1 << 1

	// evalLayoutSeeded is the only accepted layout byte: the b rows in
	// the embedded spec's NTT domain plus the mask seed.
	evalLayoutSeeded = 2

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

// evalSeedOff is the mask seed's offset within the sub-header.
const evalSeedOff = 5

func evalHeaderLen(rotCount int) int {
	return keyHeaderLen() + evalSeedOff + 16 + 2 + 4*rotCount
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
	limbTotal := dnum * (info.MaxLevel + alpha) // packed limbs across one key's b rows
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
	// The retired layouts are named from the first five sub-header bytes,
	// which every layout shares, before the seeded header's length is
	// checked.
	off := keyHeaderLen()
	if len(data) < off+evalSeedOff {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: truncated sub-header")
	}
	gadget := data[off]
	info.Digits = int(data[off+1])
	info.MaxLevel = int(data[off+2])
	flags := data[off+3]
	layout := data[off+4]

	info.Gadget = Gadget(gadget)
	if info.Gadget != GadgetHybrid {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: gadget tag 0x%02x, only 0x%02x (hybrid) is supported", gadget, byte(GadgetHybrid))
	}
	switch layout {
	case evalLayoutSeeded:
	case 0:
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: layout byte 0 tags the retired coefficient-domain layout; re-export the keys")
	case 1:
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: layout byte 1 tags the retired full-row layout; re-export the keys")
	default:
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: unknown layout byte 0x%02x, want 0x%02x (seeded)", layout, evalLayoutSeeded)
	}
	if len(data) < evalHeaderLen(0) {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: truncated sub-header")
	}
	rotCount := int(binary.LittleEndian.Uint16(data[off+evalSeedOff+16:]))
	if flags&^byte(evalFlagRelin|evalFlagConj) != 0 {
		return ParamSpec{}, info, fmt.Errorf("ckks: eval keys: unknown flag bits 0x%02x", flags)
	}
	info.HasRelin = flags&evalFlagRelin != 0
	info.HasConj = flags&evalFlagConj != 0
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
	out[off+4] = evalLayoutSeeded
	copy(out[off+evalSeedOff:], ks.MaskSeed[:])
	binary.LittleEndian.PutUint16(out[off+evalSeedOff+16:], uint16(len(steps)))
	for i, s := range steps {
		binary.LittleEndian.PutUint32(out[evalHeaderLen(i):], uint32(s))
	}

	// One lane dispatch per key, one row task per limb row of its b half;
	// the mask half is the seed above.
	rqp := p.RingQPAt(ks.MaxLevel)
	body := out[evalHeaderLen(len(steps)):]
	keyBytes := packedBytes(dnum*rqp.K(), p.N())
	for i, ksk := range ksks {
		if err := packRows(rqp, body[i*keyBytes:(i+1)*keyBytes], polyRows(rqp.K(), ksk.H0...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalEvaluationKeySet reverses MarshalEvaluationKeySet, validating
// the embedded spec against p, the blob length before any
// payload-proportional allocation, and every residue against the modulus
// chain. The mask rows are then regenerated from the blob's seed.
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
	ks := &EvaluationKeySet{Rot: make(map[int]*RotationKey), MaxLevel: info.MaxLevel}
	copy(ks.MaskSeed[:], data[keyHeaderLen()+evalSeedOff:])

	// One lane dispatch per key, in wire order: each row task unpacks and
	// range-checks one limb row of the key's b half. A rejected blob stops
	// at its first bad key, before any mask row exists.
	body := data[evalHeaderLen(len(info.Steps)):]
	rqp := p.RingQPAt(info.MaxLevel)
	dnum := p.DnumAt(info.MaxLevel)
	keyBytes := packedBytes(dnum*rqp.K(), p.N())
	type maskedKey struct {
		ksk  *SwitchingKey
		base uint64 // the key's sampling window: its mask streams
	}
	var keys []maskedKey
	readKsk := func(base uint64) (*SwitchingKey, error) {
		ksk := &SwitchingKey{Alpha: info.Digits, Level: info.MaxLevel}
		ksk.H0 = make([]*ring.Poly, dnum)
		ksk.H1 = make([]*ring.Poly, dnum)
		for j := range ksk.H0 {
			ksk.H0[j] = rqp.NewPoly()
			ksk.H0[j].IsNTT = true
		}
		if err := unpackRows(rqp, body[:keyBytes], polyRows(rqp.K(), ksk.H0...)); err != nil {
			return nil, fmt.Errorf("ckks: unmarshal eval keys: %w", err)
		}
		body = body[keyBytes:]
		keys = append(keys, maskedKey{ksk, base})
		return ksk, nil
	}

	rlk, err := readKsk(hybridRelinStreamBase)
	if err != nil {
		return nil, err
	}
	ks.Rlk = &RelinearizationKey{K: rlk}
	if info.HasConj {
		g := p.GaloisElementConjugate()
		k, err := readKsk(hybridRotationStreamBase(g))
		if err != nil {
			return nil, err
		}
		ks.Conj = &RotationKey{G: g, K: k, Perm: p.Ring().GaloisPermNTT(g)}
	}
	for _, s := range info.Steps {
		g := p.GaloisElement(s)
		k, err := readKsk(hybridRotationStreamBase(g))
		if err != nil {
			return nil, err
		}
		ks.Rot[s] = &RotationKey{G: g, K: k, Perm: p.Ring().GaloisPermNTT(g)}
	}

	// Regenerate every mask row straight into its NTT-domain poly, one
	// lane task per (key, row): a row is one serial PRNG stream, so the
	// rows are the unit of parallelism.
	rqp.Engine().Run(len(keys)*dnum, func(t int) {
		k := keys[t/dnum]
		k.ksk.regenMaskRow(rqp, ks.MaskSeed, k.base, t%dnum)
	})
	return ks, nil
}
