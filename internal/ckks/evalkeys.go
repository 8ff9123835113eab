package ckks

import "sort"

// EvaluationKeySet bundles everything a keyless server needs to compute on
// ciphertexts beyond additions: the relinearization key (ct×ct multiply)
// and a configurable set of rotation keys (slot rotations, conjugation,
// inner sums). The set is public-but-powerful material: it does not help
// decrypt, but whoever holds it can transform the key owner's ciphertexts
// — it belongs on the server, never on the encrypting devices (which need
// only the public key) and never back at rest with ciphertexts.
//
// MaxLevel caps the depth every key in the set supports: a depth-D key
// holds ⌈D/α⌉ rows of D+α limbs — linear in depth — so exporting keys no
// deeper than the server's actual circuit keeps blobs proportional to the
// work — see EvalKeyInfo and the wire-size helpers in evalkeyserialize.go.
//
// MaskSeed is the public seed every key's mask rows H1[j] were drawn from
// (on the key's own streams, see maskStream). The wire carries it in place
// of those rows, so a set is marshalled correctly only if its H1 rows are
// that seed's output — true of every set GenEvaluationKeySet or
// UnmarshalEvaluationKeySet returns.
type EvaluationKeySet struct {
	Rlk      *RelinearizationKey
	Rot      map[int]*RotationKey // by normalized slot step in [1, Slots)
	Conj     *RotationKey         // nil unless conjugation was requested
	MaxLevel int
	MaskSeed [16]byte
}

// ResidentBytes is the memory the set holds: every switching key's rows
// (SwitchingKey.ResidentBytes) plus the gather table of each rotation and
// of the conjugation. EvalKeyResidentBytes computes the same figure from
// a blob's headers.
func (ks *EvaluationKeySet) ResidentBytes() int {
	n := 0
	if ks.Rlk != nil {
		n += ks.Rlk.K.ResidentBytes()
	}
	rots := make([]*RotationKey, 0, len(ks.Rot)+1)
	for _, rk := range ks.Rot {
		rots = append(rots, rk)
	}
	if ks.Conj != nil {
		rots = append(rots, ks.Conj)
	}
	for _, rk := range rots {
		n += rk.K.ResidentBytes() + 4*len(rk.Perm)
	}
	return n
}

// Steps lists the set's rotation steps in ascending order (the canonical
// wire order).
func (ks *EvaluationKeySet) Steps() []int {
	steps := make([]int, 0, len(ks.Rot))
	for k := range ks.Rot {
		steps = append(steps, k)
	}
	sort.Ints(steps)
	return steps
}

// InnerSumRotations returns the power-of-two rotation-step ladder
// {1, 2, 4, …, n/2} that a log-depth inner sum over n slots consumes
// (n must be a power of two; n ≤ 1 needs no rotations).
func InnerSumRotations(n int) []int {
	var steps []int
	for s := 1; s < n; s <<= 1 {
		steps = append(steps, s)
	}
	return steps
}

// GenEvaluationKeySet derives a key set deterministically from the
// generator's seed: the relinearization key plus one rotation key per
// (deduplicated, normalized) step, all capped at maxLevel limbs, and the
// conjugation key when conj is set. Step 0 (the identity) is dropped.
// Every call with the same arguments regenerates byte-identical keys. The
// parameter set must carry special primes.
//
// The trailing gadget argument is vestigial: it must equal GadgetHybrid,
// the only construction. It survives because the frozen benchmark harness
// passes it; the next benchmark PR drops it.
func (kg *KeyGenerator) GenEvaluationKeySet(sk *SecretKey, maxLevel int, steps []int, conj bool, gadget Gadget) *EvaluationKeySet {
	p := kg.params
	if gadget != GadgetHybrid {
		panic("ckks: evaluation keys are hybrid only")
	}
	if maxLevel < 1 || maxLevel > p.MaxLevel() {
		panic("ckks: evaluation-key depth out of range")
	}
	if p.SpecialLimbs == 0 {
		panic("ckks: evaluation keys need special primes (ParamSpec.SpecialLimbs)")
	}
	// The keygen re-derives the secret from the generator's seed (the
	// stored SecretKey carries only Q limbs; extending to the P basis needs
	// the signed form). A caller-supplied sk that is not this seed's secret
	// would silently produce keys for the wrong key pair — every server
	// result would decrypt to noise — so the mismatch is a loud invariant
	// violation instead.
	if check := kg.GenSecretKey(); !p.Ring().Equal(check.S, sk.S) {
		panic("ckks: evaluation keys derive the secret from the generator seed; the provided secret key does not match it")
	}
	s := kg.secretQP(maxLevel)
	defer p.RingQPAt(maxLevel).PutPoly(s)
	ks := &EvaluationKeySet{
		Rlk:      kg.relinKey(s, maxLevel),
		Rot:      make(map[int]*RotationKey),
		MaxLevel: maxLevel,
		MaskSeed: kg.maskSeed,
	}
	for _, k := range steps {
		k = p.NormalizeStep(k)
		if k == 0 {
			continue
		}
		if _, ok := ks.Rot[k]; ok {
			continue
		}
		ks.Rot[k] = kg.rotationKey(s, p.GaloisElement(k), maxLevel)
	}
	if conj {
		ks.Conj = kg.rotationKey(s, p.GaloisElementConjugate(), maxLevel)
	}
	return ks
}
