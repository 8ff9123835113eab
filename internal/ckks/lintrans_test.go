package ckks

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/fftfp"
)

// ltReference evaluates the diagonal-form matrix on a plaintext vector —
// the reference LinearTransform is pinned against. It sums the diagonals
// in ascending index order, so its own rounding (≈ 2^-52 per term, which
// PN13's ≈ 49-bit precision can see) is the same on every run.
func ltReference(slots int, diags map[int][]complex128, v []complex128) []complex128 {
	m := &fftfp.DiagMatrix{N: slots, Diags: map[int][]complex128{}}
	for d, vec := range diags {
		dst := m.Diags[((d%slots)+slots)%slots]
		if dst == nil {
			dst = make([]complex128, slots)
			m.Diags[((d%slots)+slots)%slots] = dst
		}
		for i, z := range vec { // aliased indices accumulate, mirroring the transform
			dst[i] += z
		}
	}
	out := make([]complex128, slots)
	for _, d := range m.DiagIndices() {
		for r, z := range m.Diags[d] {
			out[r] += z * v[(r+d)%slots]
		}
	}
	return out
}

// TestLinearTransformAgainstReference: BSGS evaluation must match the
// plaintext mat×vec on random sparse and banded matrices, at explicit and
// auto-selected block sizes, with a worst-slot precision floor per case.
// The floors sit 0.5 bit under what the single-hoisted schedule (one
// ModDown per baby rotation) measured on these fixtures: 15.759, 15.483
// and 16.066 bits. The double-hoisted schedule measures 15.767, 15.492 and
// 16.064.
func TestLinearTransformAgainstReference(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)
	slots := p.Slots()
	rng := rand.New(rand.NewSource(7))

	randDiags := func(idx []int) map[int][]complex128 {
		out := map[int][]complex128{}
		for _, d := range idx {
			v := make([]complex128, slots)
			for r := range v {
				v[r] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			out[d] = v
		}
		return out
	}

	cases := []struct {
		name      string
		idx       []int
		n1        int
		floorBits float64
	}{
		{"sparse-auto-hybrid", []int{0, 1, slots - 1, 64, 200}, 0, 15.259},
		{"banded-n1=8-hybrid", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 8, 14.983},
		{"negative-and-dup-hybrid", []int{-1, slots - 1, 0, 17}, 0, 15.566},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := randDiags(tc.idx)
			lt := enc.NewLinearTransform(diags, p.MaxLevel(), tc.n1)
			ks := kg.GenEvaluationKeySet(sk, p.MaxLevel(), lt.Rotations(), false, GadgetHybrid)

			msg := randMsg(p, 0, uint64(100+len(tc.idx)))
			ct := encryptor.Encrypt(enc.Encode(msg))
			out := ev.LinearTransform(ct, lt, ks.Rot)
			if out.Level != lt.Level-lt.Rescales {
				t.Fatalf("output level %d, want %d", out.Level, lt.Level-lt.Rescales)
			}
			got := enc.Decode(dec.Decrypt(out))
			want := ltReference(slots, diags, msg)
			bits := -math.Log2(maxErr(want, got))
			t.Logf("worst-slot precision %.3f bits (floor %.3f)", bits, tc.floorBits)
			if bits < tc.floorBits {
				t.Fatalf("BSGS transform precision %.3f bits, floor %.3f", bits, tc.floorBits)
			}
		})
	}
}

// TestLinearTransformPN13Precision: the three CoeffsToSlots factors of a
// PN13 DFT (Levels 3, full depth) against their plaintext mat×vec, each
// with a worst-slot floor 0.5 bit under what the single-hoisted schedule
// measured on this fixture (48.651, 48.955 and 49.042 bits; the
// double-hoisted schedule measures 48.644, 48.991 and 49.065).
func TestLinearTransformPN13Precision(t *testing.T) {
	if testing.Short() {
		t.Skip("PN13 key generation")
	}
	p := PN13.MustBuild()
	defer p.Close()
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)
	level := p.MaxLevel()
	floors := []float64{48.151, 48.455, 48.542}
	for j, m := range p.Embedder().DFTMatrices(3, true) {
		lt := enc.NewLinearTransform(m.Diags, level, 0)
		ks := kg.GenEvaluationKeySet(sk, level, lt.Rotations(), false, GadgetHybrid)
		msg := randMsg(p, 0, 131)
		ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(msg))
		got := enc.Decode(dec.Decrypt(ev.LinearTransform(ct, lt, ks.Rot)))
		bits := -math.Log2(maxErr(ltReference(p.Slots(), m.Diags, msg), got))
		t.Logf("factor %d (n1 %d, %d babies, %d giants): %.3f bits (floor %.3f)",
			j, lt.N1, len(lt.BabySteps()), len(lt.GiantSteps()), bits, floors[j])
		if bits < floors[j] {
			t.Fatalf("factor %d: worst-slot precision %.3f bits, floor %.3f", j, bits, floors[j])
		}
	}
}

// TestLinearTransformMergesAliasedDiagonals: indices d and d−slots name the
// same cyclic diagonal and must be summed, not last-write-wins.
func TestLinearTransformMergesAliasedDiagonals(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)
	slots := p.Slots()

	ones := make([]complex128, slots)
	for i := range ones {
		ones[i] = 1
	}
	// diag 3 given twice (as 3 and 3−slots): the transform is 2·rot_3.
	lt := enc.NewLinearTransform(map[int][]complex128{3: ones, 3 - slots: ones}, p.MaxLevel(), 0)
	ks := kg.GenEvaluationKeySet(sk, p.MaxLevel(), lt.Rotations(), false, GadgetHybrid)

	msg := randMsg(p, 0, 301)
	out := ev.LinearTransform(encryptor.Encrypt(enc.Encode(msg)), lt, ks.Rot)
	got := enc.Decode(dec.Decrypt(out))
	want := make([]complex128, slots)
	for i := range want {
		want[i] = 2 * msg[(i+3)%slots]
	}
	if e := maxErr(want, got); e > 5e-2 {
		t.Fatalf("aliased diagonals not merged: error %g", e)
	}
}

// TestBSGSStepsAndOptimalN1 pins the split arithmetic and the block-size
// scan on a hand-checked case.
func TestBSGSStepsAndOptimalN1(t *testing.T) {
	// Diagonals 0..15 over 64 slots: n1=4 → 4 babies + 4 giants = 8,
	// n1=16 → 16+1 = 17, n1=2 → 2+8 = 10. Optimum is 4 (or tied 8: 8+2=10
	// loses; 4 is strictly best).
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	b, g := BSGSSteps(64, idx, 4)
	if len(b) != 4 || len(g) != 4 {
		t.Fatalf("BSGSSteps(64, 0..15, 4): %d babies %d giants, want 4+4", len(b), len(g))
	}
	if n1 := OptimalN1(64, idx); n1 != 4 {
		t.Fatalf("OptimalN1 = %d, want 4", n1)
	}
	// Negative indices normalize cyclically.
	b, g = BSGSSteps(64, []int{-1}, 8)
	if len(b) != 1 || b[0] != 7 || len(g) != 1 || g[0] != 56 {
		t.Fatalf("BSGSSteps(64, {-1}, 8) = %v/%v, want [7]/[56]", b, g)
	}
}

// TestMulByI: multiplying by X^(N/2) must multiply every slot by i without
// touching scale, level, or adding key-switch noise.
func TestMulByI(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 55)
	ct := encryptor.Encrypt(enc.Encode(msg))
	out := ev.MulByI(ct)
	if out.Level != ct.Level || out.Scale != ct.Scale {
		t.Fatalf("MulByI changed level/scale: %d/%g vs %d/%g", out.Level, out.Scale, ct.Level, ct.Scale)
	}
	got := enc.Decode(dec.Decrypt(out))
	want := make([]complex128, len(msg))
	for i, z := range msg {
		want[i] = z * 1i
	}
	// No homomorphic noise beyond the fresh encryption's.
	if e := maxErr(want, got); e > 1e-3 {
		t.Fatalf("MulByI error %g", e)
	}
}

// TestHomomorphicDFTRoundTrip: CoeffsToSlots must surface the encoding
// basis (bit-reversed IFFT values, split into real/imaginary halves), and
// SlotsToCoeffs must invert it back to the original slots.
func TestHomomorphicDFTRoundTrip(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)
	slots := p.Slots()
	logn := bits.Len(uint(slots)) - 1

	dft := enc.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: p.MaxLevel(), Levels: 1})
	ks := kg.GenEvaluationKeySet(sk, p.MaxLevel(), dft.Rotations(), true, GadgetHybrid)

	msg := randMsg(p, 0, 77)
	ct := encryptor.Encrypt(enc.Encode(msg))

	re, im := ev.CoeffsToSlots(ct, dft, ks.Rot, ks.Conj)
	if re.Level != dft.MidLevel || im.Level != dft.MidLevel {
		t.Fatalf("C2S levels %d/%d, want %d", re.Level, im.Level, dft.MidLevel)
	}

	// Reference: t = IFFT(msg), bit-reversed.
	vals := make([]fftfp.Complex, slots)
	for i, z := range msg {
		vals[i] = fftfp.Complex{Re: real(z), Im: imag(z)}
	}
	p.Embedder().IFFT(vals, fftfp.NewCtx(fftfp.Float64Mantissa))
	gotRe := enc.Decode(dec.Decrypt(re))
	gotIm := enc.Decode(dec.Decrypt(im))
	worst := 0.0
	for r := 0; r < slots; r++ {
		br := int(bits.Reverse64(uint64(r)) >> (64 - uint(logn)))
		wantT := complex(vals[br].Re, vals[br].Im)
		got := complex(real(gotRe[r]), real(gotIm[r]))
		if d := cmplx.Abs(got - wantT); d > worst {
			worst = d
		}
		// The outputs are real-valued vectors: imaginary parts ≈ 0.
		if d := cmplx.Abs(complex(imag(gotRe[r]), imag(gotIm[r]))); d > worst {
			worst = d
		}
	}
	if worst > 5e-2 {
		t.Fatalf("CoeffsToSlots worst-slot error %g", worst)
	}

	back := ev.SlotsToCoeffs(re, im, dft, ks.Rot)
	if back.Level != dft.StartLevel-2*dft.Levels*p.RescalesPerLevel() {
		t.Fatalf("S2C output level %d", back.Level)
	}
	got := enc.Decode(dec.Decrypt(back))
	if e := maxErr(msg, got); e > 5e-2 {
		t.Fatalf("C2S→S2C round-trip error %g", e)
	}
}

// TestHomomorphicDFTRotationsContract: the analytic rotation set key
// owners derive (HomomorphicDFTRotations) must equal the set the built
// transforms request — group by group, including block-size choices.
func TestHomomorphicDFTRotationsContract(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	slots := p.Slots()
	logn := bits.Len(uint(slots)) - 1
	emb := p.Embedder()

	for _, levels := range []int{1, 3} {
		set := map[int]bool{}
		for _, inverse := range []bool{true, false} {
			for _, m := range emb.DFTMatrices(levels, inverse) {
				// Each group built independently at a shallow valid level:
				// the rotation set depends only on the diagonal support.
				lt := enc.NewLinearTransform(m.Diags, 2, 0)
				for _, s := range lt.Rotations() {
					set[s] = true
				}
			}
		}
		want := HomomorphicDFTRotations(slots, levels)
		if len(want) != len(set) {
			t.Fatalf("levels=%d: analytic set has %d steps, built set %d", levels, len(want), len(set))
		}
		for _, s := range want {
			if !set[s] {
				t.Fatalf("levels=%d: analytic step %d missing from built set", levels, s)
			}
		}
		_ = logn
	}
}
