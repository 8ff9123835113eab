package ckks

import (
	"bytes"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/ring"
)

func testEvalKeySet(t testing.TB, maxLevel int, steps []int, conj bool) (*EvaluationKeySet, *SecretKey, *PublicKey) {
	t.Helper()
	kg := NewKeyGenerator(testParams, testSeed())
	sk, pk := kg.GenKeyPair()
	return kg.GenEvaluationKeySet(sk, maxLevel, steps, conj, GadgetHybrid), sk, pk
}

// wideRow returns row j of a key half as an NTT-domain word polynomial
// over rqp.
func wideRow(rqp *ring.Ring, half []ring.NarrowPoly, j int) *ring.Poly {
	w := rqp.Widen(&half[j])
	w.IsNTT = true
	return w
}

// keySetsEqual reports whether two sets hold the same keys, row for row.
func keySetsEqual(p *Parameters, a, b *EvaluationKeySet) bool {
	if a.MaxLevel != b.MaxLevel || a.MaskSeed != b.MaskSeed || len(a.Rot) != len(b.Rot) || (a.Conj == nil) != (b.Conj == nil) {
		return false
	}
	pairs := [][2]*SwitchingKey{{a.Rlk.K, b.Rlk.K}}
	if a.Conj != nil {
		pairs = append(pairs, [2]*SwitchingKey{a.Conj.K, b.Conj.K})
	}
	for s, rk := range a.Rot {
		if b.Rot[s] == nil {
			return false
		}
		pairs = append(pairs, [2]*SwitchingKey{rk.K, b.Rot[s].K})
	}
	rqp := p.RingQPAt(a.MaxLevel)
	for _, k := range pairs {
		for j := range k[0].H0 {
			if !rqp.Equal(wideRow(rqp, k[0].H0, j), wideRow(rqp, k[1].H0, j)) || !rqp.Equal(wideRow(rqp, k[0].H1, j), wideRow(rqp, k[1].H1, j)) {
				return false
			}
		}
	}
	return true
}

// TestEvalKeySetRoundTrip pins the wire format: marshal→unmarshal→marshal
// is byte-identical, the round-tripped keys are poly-equal to the
// originals (b rows travel as they sit in memory, NTT domain; mask rows
// are regenerated from the seed), and generation is deterministic from
// the seed (canonical re-export).
func TestEvalKeySetRoundTrip(t *testing.T) {
	p := testParams
	t.Run("hybrid", func(t *testing.T) {
		ks, _, _ := testEvalKeySet(t, 3, []int{1, 2, 2, -1 /* dup + negative */}, true)

		data, err := p.MarshalEvaluationKeySet(ks)
		if err != nil {
			t.Fatal(err)
		}
		info := EvalKeyInfo{Gadget: GadgetHybrid, Digits: p.SpecialLimbs, MaxLevel: 3, HasRelin: true, HasConj: true, Steps: ks.Steps()}
		if want := EvalKeyWireBytes(p.Spec(), info); len(data) != want {
			t.Fatalf("blob is %d bytes, EvalKeyWireBytes says %d", len(data), want)
		}

		back, err := p.UnmarshalEvaluationKeySet(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := p.MarshalEvaluationKeySet(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("re-marshal not byte-identical")
		}

		// Deterministic regeneration: a second key set from the same
		// seed marshals identically.
		ks2, _, _ := testEvalKeySet(t, 3, []int{-1, 1, 2}, true)
		data2, err := p.MarshalEvaluationKeySet(ks2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatal("evaluation-key generation is not deterministic from the seed")
		}

		// Poly-level equality: every key survives the wire exactly, its
		// b rows unpacked and its mask rows regenerated from the seed.
		if !keySetsEqual(p, ks, back) {
			t.Fatal("evaluation keys changed across the wire")
		}
		// Geometry: steps normalized (−1 ≡ Slots−1), dup dropped, conj
		// present.
		wantSteps := map[int]bool{1: true, 2: true, p.Slots() - 1: true}
		if len(back.Rot) != len(wantSteps) {
			t.Fatalf("rotation steps %v", back.Steps())
		}
		for s := range wantSteps {
			if back.Rot[s] == nil {
				t.Fatalf("missing step %d (have %v)", s, back.Steps())
			}
		}
		if back.Conj == nil || back.MaxLevel != 3 {
			t.Fatal("conjugation key or depth lost")
		}
	})

	// The paper-scale blob (PN15, full depth, relinearization plus three
	// rotation keys) is pinned exactly: any wire-format growth must update
	// this number deliberately.
	info := EvalKeyInfo{Gadget: GadgetHybrid, Digits: PN15.SpecialLimbs, MaxLevel: PN15.Limbs, HasRelin: true, Steps: []int{1, 2, 3}}
	if got := EvalKeyWireBytes(PN15, info); got != 121110577 {
		t.Fatalf("PN15 full-depth 3-rotation blob is %d bytes, want 121110577", got)
	}
}

// TestEvalKeySetWorkerInvariance: the β key rows are generated as parallel
// lane tasks, each on its own streams, and import regenerates the mask
// rows as one lane task per (key, row), so the exported bytes and the
// imported keys are the same at any worker count. PN13 at full depth has
// β = 4 rows per key.
func TestEvalKeySetWorkerInvariance(t *testing.T) {
	var blobs [][]byte
	var sets []*EvaluationKeySet
	var p *Parameters
	for _, w := range []int{1, 8} {
		p = PN13.MustBuild()
		p.SetWorkers(w)
		kg := NewKeyGenerator(p, testSeed())
		if beta := p.DnumAt(p.MaxLevel()); beta != 4 {
			t.Fatalf("PN13 full depth has β = %d, want 4", beta)
		}
		ks := kg.GenEvaluationKeySet(kg.GenSecretKey(), p.MaxLevel(), []int{1, 5}, true, GadgetHybrid)
		data, err := p.MarshalEvaluationKeySet(ks)
		if err != nil {
			t.Fatal(err)
		}
		back, err := p.UnmarshalEvaluationKeySet(data)
		if err != nil {
			t.Fatal(err)
		}
		if !keySetsEqual(p, ks, back) {
			t.Fatalf("workers=%d: imported keys differ from the generated ones", w)
		}
		blobs = append(blobs, data)
		sets = append(sets, back)
		p.Close()
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("evaluation keys differ between 1 and 8 workers")
	}
	if !keySetsEqual(p, sets[0], sets[1]) {
		t.Fatal("imported evaluation keys differ between 1 and 8 workers")
	}
}

// TestDepthCappedMulRelin: a relinearization key generated at a reduced
// depth multiplies correctly at every level it supports and panics above.
func TestDepthCappedMulRelin(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinearizationKeyHybridAt(2)
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 61)
	m2 := randMsg(p, 0, 62)
	ct1 := ev.DropLevel(encryptor.Encrypt(enc.Encode(m1)), 2)
	ct2 := ev.DropLevel(encryptor.Encrypt(enc.Encode(m2)), 2)

	prod := ev.Rescale(ev.MulRelin(ct1, ct2, rlk))
	got := enc.Decode(dec.Decrypt(prod))
	for i := range m1 {
		if cmplx.Abs(got[i]-m1[i]*m2[i]) > 5e-2 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], m1[i]*m2[i])
		}
	}

	// Above the key's depth: loud panic at the scheme layer (the public
	// API converts this to a typed error before reaching here).
	full1 := encryptor.Encrypt(enc.Encode(m1))
	full2 := encryptor.Encrypt(enc.Encode(m2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MulRelin above key depth must panic at the scheme layer")
		}
		if !strings.Contains(r.(string), "depth") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	ev.MulRelin(full1, full2, rlk)
}

// TestRotateHoistedMatchesSequential: the hoisted multi-rotation path is
// bit-identical to rotating one step at a time (same keys, same digits —
// the decomposition is shared, not re-derived), and decrypts to the
// rotated message.
func TestRotateHoistedMatchesSequential(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 63)
	ct := encryptor.Encrypt(enc.Encode(msg))

	steps := []int{1, 2, 5}
	rks := make([]*RotationKey, len(steps))
	for i, k := range steps {
		rks[i] = kg.GenRotationKeyHybridAt(p.GaloisElement(k), p.MaxLevel())
	}

	hoisted := ev.RotateHoisted(ct, rks)
	r := p.Ring()
	for i, rk := range rks {
		seq := ev.RotateGalois(ct, rk)
		if !r.Equal(seq.C0, hoisted[i].C0) || !r.Equal(seq.C1, hoisted[i].C1) {
			t.Fatalf("step %d: hoisted rotation differs from sequential", steps[i])
		}
		got := enc.Decode(dec.Decrypt(hoisted[i]))
		slots := p.Slots()
		for j := 0; j < slots; j++ {
			want := msg[(j+steps[i])%slots]
			if cmplx.Abs(got[j]-want) > 5e-2 {
				t.Fatalf("step %d slot %d: got %v want %v", steps[i], j, got[j], want)
			}
		}
	}
}

// TestEvalKeyInfoRejects drives the sub-header validation: a gadget tag
// other than hybrid (0 tagged the retired digit gadget), a layout byte
// other than seeded (0 tagged the retired coefficient layout, 1 the
// retired full-row layout), unknown flags, bad group sizes, out-of-range
// depth, non-ascending steps, truncations — errors, never panics.
func TestEvalKeyInfoRejects(t *testing.T) {
	p := testParams
	ks, _, _ := testEvalKeySet(t, 2, []int{1}, false)
	data, err := p.MarshalEvaluationKeySet(ks)
	if err != nil {
		t.Fatal(err)
	}
	off := keyHeaderLen()

	mut := func(i int, v byte) []byte {
		d := append([]byte(nil), data...)
		d[i] = v
		return d
	}
	cases := map[string][]byte{
		"retired gadget tag":                 mut(off, 0),
		"gadget tag 2":                       mut(off, 2),
		"retired coefficient-domain payload": mut(off+4, 0),
		"retired full-row layout":            mut(off+4, 1),
		"real retired full-row blob":         fullRowLayout(t, p, ks),
		"unknown layout":                     mut(off+4, 3),
		"unknown flags":                      mut(off+3, 0xF0),
		"zero group size":                    mut(off+1, 0),
		"huge group size":                    mut(off+1, 255),
		"forged group size":                  mut(off+1, byte(p.SpecialLimbs+1)),
		"zero depth":                         mut(off+2, 0),
		"depth > limbs":                      mut(off+2, 200),
		"step zero":                          mut(evalHeaderLen(0), 0),
		"truncated":                          data[:len(data)-5],
		"padded":                             append(append([]byte(nil), data...), 0),
		"wrong kind":                         mut(5, 'P'),
	}
	for name, d := range cases {
		if _, err := p.UnmarshalEvaluationKeySet(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The tag is rejected by the header read itself — from the header
	// bytes alone, before anything looks at the payload.
	for _, tag := range []byte{0, 2} {
		if _, _, err := ReadEvalKeyInfo(mut(off, tag)[:evalHeaderLen(1)]); err == nil || !strings.Contains(err.Error(), "gadget tag") {
			t.Errorf("gadget tag %d: header read returned %v", tag, err)
		}
	}

	// The retired layouts are named, with the remedy.
	if _, _, err := ReadEvalKeyInfo(mut(off+4, 0)); err == nil || !strings.Contains(err.Error(), "retired coefficient-domain layout; re-export") {
		t.Errorf("retired layout byte 0: header read returned %v", err)
	}
	// A real full-row blob is named from its first five sub-header bytes.
	old := fullRowLayout(t, p, ks)
	for _, d := range [][]byte{old, old[:off+evalSeedOff]} {
		if _, _, err := ReadEvalKeyInfo(d); err == nil || !strings.Contains(err.Error(), "retired full-row layout; re-export") {
			t.Errorf("retired layout byte 1 (%d bytes): header read returned %v", len(d), err)
		}
	}

	// A residue pushed past its modulus: byte 10 of packed word 1 is in
	// the always-zero bits 36..43 for 36-bit residues (cf. the key-blob
	// sweep in the public tests).
	bad := mut(evalHeaderLen(1)+10, 0xFF)
	if _, err := p.UnmarshalEvaluationKeySet(bad); err == nil || !strings.Contains(err.Error(), "residue") {
		t.Errorf("oversized residue: %v", err)
	}

	// Wrong-parameter import: a Tiny-spec blob against Test parameters.
	tiny := TinyParams.MustBuild()
	kgT := NewKeyGenerator(tiny, testSeed())
	skT := kgT.GenSecretKey()
	ksT := kgT.GenEvaluationKeySet(skT, 2, []int{1}, false, GadgetHybrid)
	dataT, err := tiny.MarshalEvaluationKeySet(ksT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.UnmarshalEvaluationKeySet(dataT); err == nil {
		t.Error("accepted an evaluation-key blob from different parameters")
	}
}

// fullRowLayout encodes ks in the retired full-row layout (layout byte
// 1): the sub-header without the mask seed, then per key H0[j] and H1[j]
// for every group, packed as they sit in memory.
func fullRowLayout(t *testing.T, p *Parameters, ks *EvaluationKeySet) []byte {
	t.Helper()
	blob, err := p.MarshalEvaluationKeySet(ks)
	if err != nil {
		t.Fatal(err)
	}
	off := keyHeaderLen()
	out := append([]byte(nil), blob[:off+evalSeedOff]...)
	out[off+4] = 1
	out = append(out, blob[off+evalSeedOff+16:evalHeaderLen(len(ks.Rot))]...)
	keys := []*SwitchingKey{ks.Rlk.K}
	if ks.Conj != nil {
		keys = append(keys, ks.Conj.K)
	}
	for _, s := range ks.Steps() {
		keys = append(keys, ks.Rot[s].K)
	}
	rqp := p.RingQPAt(ks.MaxLevel)
	for _, k := range keys {
		var polys []*ring.Poly
		for j := range k.H0 {
			polys = append(polys, wideRow(rqp, k.H0, j), wideRow(rqp, k.H1, j))
		}
		body := make([]byte, packedBytes(len(polys)*rqp.K(), p.N()))
		if err := packRows(rqp, body, polyRows(rqp.K(), polys...)); err != nil {
			t.Fatal(err)
		}
		out = append(out, body...)
	}
	return out
}

// TestResidentBytesPinned pins the resident footprint of the
// benchmark-scale full-depth key sets from the parameters alone — no key
// is built. A depth-24 key at PN14 is 6 groups × 28 limbs × 2^14 × 5 B ×
// 2 halves; rotations and the conjugation add a 4-byte gather index per
// coefficient. The word form the rows had before (8 B per residue) is
// logged beside each pin.
func TestResidentBytesPinned(t *testing.T) {
	set := func(rotations int, conj bool) EvalKeyInfo {
		return EvalKeyInfo{Gadget: GadgetHybrid, Digits: 4, MaxLevel: 24, HasRelin: true, HasConj: conj, Steps: make([]int, rotations)}
	}
	for _, c := range []struct {
		name string
		spec ParamSpec
		info EvalKeyInfo
		want int
	}{
		{"PN14 relinearization key", PN14, set(0, false), 27_525_120},
		{"PN14 bootstrap set: relin, conjugation, 37 rotations", PN14, set(37, true), 1_075_970_048},
		{"PN15 relinearization key", PN15, set(0, false), 55_050_240},
		{"PN15 eval set: relin, conjugation, rotations 1 2 4", PN15, set(3, true), 275_775_488},
	} {
		got := EvalKeyResidentBytes(c.spec, c.info)
		rows, n := c.info.halfLimbRows(c.spec)
		words := got + (8-5)*c.info.keyCount()*2*rows*n // the same rows at 8 B
		t.Logf("%s: %d B resident (%d B at 8 B per residue)", c.name, got, words)
		if got != c.want {
			t.Errorf("%s: %d resident bytes, want %d", c.name, got, c.want)
		}
	}
}

// TestResidentBytesMatchesKeys: a built set holds exactly the bytes the
// header arithmetic gives — generated and imported, on the Test preset
// (5 B per residue), and generated on 61-bit limbs, where the rows keep
// 8 B per residue (that chain has no wire form).
func TestResidentBytesMatchesKeys(t *testing.T) {
	p := testParams
	ks, _, _ := testEvalKeySet(t, p.MaxLevel(), []int{1, 3}, true)
	want := EvalKeyResidentBytes(p.Spec(), ks.wireInfo(p.SpecialLimbs))
	if got := ks.ResidentBytes(); got != want || want == 0 {
		t.Errorf("Test preset generated: %d resident bytes, arithmetic %d", got, want)
	}
	blob, err := p.MarshalEvaluationKeySet(ks)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.UnmarshalEvaluationKeySet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ResidentBytes(); got != want {
		t.Errorf("Test preset imported: %d resident bytes, arithmetic %d", got, want)
	}
	if k := ks.Rlk.K; k.ResidentBytes() != 2*p.DnumAt(p.MaxLevel())*(p.MaxLevel()+p.SpecialLimbs)*p.N()*5 {
		t.Errorf("Test preset relinearization key: %d resident bytes, want 5 per residue", k.ResidentBytes())
	}

	wide := ParamSpec{LogN: 8, LimbBits: 61, Limbs: 9, LogScale: 40, HW: 32, SpecialLimbs: 1}.MustBuild()
	kg := NewKeyGenerator(wide, testSeed())
	wks := kg.GenEvaluationKeySet(kg.GenSecretKey(), wide.MaxLevel(), []int{1}, false, GadgetHybrid)
	want = EvalKeyResidentBytes(wide.Spec(), wks.wireInfo(wide.SpecialLimbs))
	if got := wks.ResidentBytes(); got != want || wks.Rlk.K.ResidentBytes() != 2*9*10*256*8 {
		t.Errorf("61-bit limbs: %d resident bytes (relin %d), arithmetic %d", got, wks.Rlk.K.ResidentBytes(), want)
	}
}
