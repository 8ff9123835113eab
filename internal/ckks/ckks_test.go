package ckks

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"repro/internal/prng"
	"repro/internal/ring"
)

var testParams = TestParams.MustBuild()

func testSeed() [16]byte { return prng.SeedFromUint64s(0x1234, 0x5678) }

func randMsg(p *Parameters, n int, stream uint64) []complex128 {
	src := prng.NewSource(prng.SeedFromUint64s(777, 888), stream)
	if n <= 0 || n > p.Slots() {
		n = p.Slots()
	}
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(src.Float64()*2-1, src.Float64()*2-1)
	}
	return msg
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	msg := randMsg(p, 0, 1)
	pt := enc.Encode(msg)
	if pt.Level != p.MaxLevel() {
		t.Fatal("encode level")
	}
	got := enc.Decode(pt)
	if e := maxErr(msg, got[:len(msg)]); e > 1e-7 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncodeShortMessagePadding(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	msg := randMsg(p, 10, 2)
	pt := enc.Encode(msg)
	got := enc.Decode(pt)
	if e := maxErr(msg, got[:10]); e > 1e-7 {
		t.Fatalf("short message error %g", e)
	}
	for i := 10; i < p.Slots(); i++ {
		if cmplx.Abs(got[i]) > 1e-7 {
			t.Fatalf("padding slot %d non-zero: %v", i, got[i])
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)

	msg := randMsg(p, 0, 3)
	ct := encryptor.Encrypt(enc.Encode(msg))
	if ct.C0.IsNTT || ct.C1.IsNTT {
		t.Fatal("ciphertext must be in coefficient domain")
	}
	got := enc.Decode(dec.Decrypt(ct))
	if e := maxErr(msg, got); e > 1e-4 {
		t.Fatalf("encrypt/decrypt error %g", e)
	}
}

func TestDecryptWithWrongKeyFails(t *testing.T) {
	p := testParams
	kg1 := NewKeyGenerator(p, testSeed())
	sk1, pk1 := kg1.GenKeyPair()
	_ = sk1
	kg2 := NewKeyGenerator(p, prng.SeedFromUint64s(9999, 8888))
	sk2 := kg2.GenSecretKey()

	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk1, testSeed())
	msg := randMsg(p, 0, 4)
	ct := encryptor.Encrypt(enc.Encode(msg))
	got := enc.Decode(NewDecryptor(p, sk2).Decrypt(ct))
	if e := maxErr(msg, got); e < 1.0 {
		t.Fatalf("wrong key decrypted with error %g — security broken", e)
	}
}

func TestFreshCiphertextsDiffer(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	msg := randMsg(p, 0, 5)
	ct1 := encryptor.Encrypt(enc.Encode(msg))
	ct2 := encryptor.Encrypt(enc.Encode(msg))
	same := true
	for j := 0; j < p.N() && same; j++ {
		if ct1.C1.Coeffs[0][j] != ct2.C1.Coeffs[0][j] {
			same = false
		}
	}
	if same {
		t.Fatal("two encryptions of the same message share randomness")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 6)
	m2 := randMsg(p, 0, 7)
	ct := ev.Add(encryptor.Encrypt(enc.Encode(m1)), encryptor.Encrypt(enc.Encode(m2)))
	got := enc.Decode(dec.Decrypt(ct))
	want := make([]complex128, len(m1))
	for i := range want {
		want[i] = m1[i] + m2[i]
	}
	if e := maxErr(want, got); e > 1e-4 {
		t.Fatalf("homomorphic add error %g", e)
	}
}

func TestHomomorphicSubNegate(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m := randMsg(p, 0, 8)
	ct := encryptor.Encrypt(enc.Encode(m))
	diff := ev.Sub(ct, ct)
	got := enc.Decode(dec.Decrypt(diff))
	for i := range got {
		if cmplx.Abs(got[i]) > 1e-4 {
			t.Fatalf("ct - ct not ≈ 0 at slot %d", i)
		}
	}
	neg := ev.Negate(ct)
	sum := ev.Add(ct, neg)
	got = enc.Decode(dec.Decrypt(sum))
	for i := range got {
		if cmplx.Abs(got[i]) > 1e-4 {
			t.Fatalf("ct + (-ct) not ≈ 0 at slot %d", i)
		}
	}
}

func TestMulPlainRescale(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m1 := randMsg(p, 0, 9)
	m2 := randMsg(p, 0, 10)
	ct := encryptor.Encrypt(enc.Encode(m1))
	prod := ev.MulPlain(ct, enc.Encode(m2))
	prod = ev.Rescale(prod)
	if prod.Level != p.MaxLevel()-1 {
		t.Fatal("rescale must consume one limb")
	}
	got := enc.Decode(dec.Decrypt(prod))
	want := make([]complex128, len(m1))
	for i := range want {
		want[i] = m1[i] * m2[i]
	}
	// Rescale noise floor: Δ drops to 2^60/2^36 = 2^24, and the rounding
	// error (~(1+HW)/2 per coefficient) lands at ≈2e-4 in slot space.
	if e := maxErr(want, got); e > 1e-3 {
		t.Fatalf("plaintext multiply error %g", e)
	}
}

func TestMulConst(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	m := randMsg(p, 0, 11)
	ct := ev.MulConst(encryptor.Encrypt(enc.Encode(m)), -2.5)
	got := enc.Decode(dec.Decrypt(ct))
	for i := range got {
		if cmplx.Abs(got[i]-(-2.5)*m[i]) > 1e-4 {
			t.Fatalf("MulConst error at %d: %v vs %v", i, got[i], -2.5*m[i])
		}
	}
}

// TestMulConstMatchesScalarReference: MulConst (one mulConstAt pass) gives
// the bytes of the scalar product it replaced — round(|c|·2^30) times every
// residue, negated for c < 0 — on Test and PN13, including rounding ties
// and the largest constant the public API admits; c = 0 gives the zero
// ciphertext at scale Δ·2^30.
func TestMulConstMatchesScalarReference(t *testing.T) {
	consts := []float64{
		-0.3, 0.3, 1, -1, 2.5, -2.5, 0.5 / (1 << 30), 1.5 / (1 << 30), -2.5 / (1 << 30),
		1e-12, 12345.678, 1<<32 - 1, -(1<<32 - 1), 0,
	}
	for _, spec := range []ParamSpec{TestParams, PN13} {
		p := spec.MustBuild()
		_, pk := NewKeyGenerator(p, testSeed()).GenKeyPair()
		ct := NewEncryptor(p, pk, testSeed()).Encrypt(NewEncoder(p).Encode(randMsg(p, 0, 12)))
		ev := NewEvaluator(p)
		rl := p.RingAt(ct.Level)
		for _, c := range consts {
			want := p.CopyCiphertext(ct)
			ci := uint64(math.Round(math.Abs(c) * (1 << 30)))
			for _, poly := range []*ring.Poly{want.C0, want.C1} {
				rl.MulScalar(poly, ci, poly)
				if c < 0 {
					rl.Neg(poly, poly)
				}
			}
			got := ev.MulConst(ct, c)
			if got.Scale != ct.Scale*(1<<30) {
				t.Fatalf("LogN %d, c = %g: scale %g, want %g", spec.LogN, c, got.Scale, ct.Scale*(1<<30))
			}
			for i := range want.C0.Coeffs {
				if !slices.Equal(got.C0.Coeffs[i], want.C0.Coeffs[i]) || !slices.Equal(got.C1.Coeffs[i], want.C1.Coeffs[i]) {
					t.Fatalf("LogN %d, c = %g: limb %d differs from the scalar product", spec.LogN, c, i)
				}
			}
		}
		p.Close()
	}
}

func TestDropLevelDecrypts(t *testing.T) {
	// The paper's client receives 2-limb ciphertexts from the server
	// (§V-B). Dropping a full-depth ciphertext to 2 limbs must still
	// decrypt correctly.
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 12)
	ct := encryptor.Encrypt(enc.Encode(msg))
	low := ev.DropLevel(ct, 2)
	if low.Level != 2 {
		t.Fatal("drop level")
	}
	got := enc.Decode(dec.Decrypt(low))
	if e := maxErr(msg, got); e > 1e-4 {
		t.Fatalf("2-limb decrypt error %g", e)
	}
}

func TestKeyDeterminism(t *testing.T) {
	p := testParams
	a := NewKeyGenerator(p, testSeed()).GenSecretKey()
	b := NewKeyGenerator(p, testSeed()).GenSecretKey()
	if !p.Ring().Equal(a.S, b.S) {
		t.Fatal("same seed must derive the same secret key")
	}
}

func TestSecretKeyHammingWeight(t *testing.T) {
	p := testParams
	sk := NewKeyGenerator(p, testSeed()).GenSecretKey()
	s := p.Ring().CopyPoly(sk.S)
	p.Ring().INTT(s)
	nonzero := 0
	for j := 0; j < p.N(); j++ {
		v := p.Ring().Basis.Moduli[0].Centered(s.Coeffs[0][j])
		switch v {
		case -1, 0, 1:
			if v != 0 {
				nonzero++
			}
		default:
			t.Fatalf("secret coefficient %d not ternary", v)
		}
	}
	if nonzero != p.HW {
		t.Fatalf("secret Hamming weight %d, want %d", nonzero, p.HW)
	}
}

func TestParamSpecValidation(t *testing.T) {
	if _, err := (ParamSpec{LogN: 2, LimbBits: 36, Limbs: 2, LogScale: 30}).Build(); err == nil {
		t.Fatal("logN=2 must be rejected")
	}
	if _, err := (ParamSpec{LogN: 10, LimbBits: 30, Limbs: 2, LogScale: 60}).Build(); err == nil {
		t.Fatal("scale above 2-limb modulus must be rejected")
	}
	if _, err := (ParamSpec{LogN: 10, LimbBits: 36, Limbs: 0, LogScale: 30}).Build(); err == nil {
		t.Fatal("zero limbs must be rejected")
	}
}

func TestNoiseGrowthBounded(t *testing.T) {
	// Fresh-encryption noise at Δ = 2^30, N = 2^10: coefficient noise
	// ‖e·u + e0 + e1·s‖ ≈ σ√(2N/3) + σ√HW ≈ 10^2, and the un-normalized
	// decode FFT multiplies by √N — max slot error ≈ 10^-5, ≈ 16 bits.
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	msg := randMsg(p, 0, 13)
	got := enc.Decode(dec.Decrypt(encryptor.Encrypt(enc.Encode(msg))))
	e := maxErr(msg, got)
	if prec := -math.Log2(e); prec < 15 {
		t.Fatalf("fresh-encryption precision %.1f bits < 15", prec)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := testParams
	enc := NewEncoder(p)
	msg := randMsg(p, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(msg)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	pt := enc.Encode(randMsg(p, 0, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encryptor.Encrypt(pt)
	}
}

func BenchmarkDecryptDecode(b *testing.B) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ct := encryptor.Encrypt(enc.Encode(randMsg(p, 0, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Decode(dec.Decrypt(ct))
	}
}

func TestMeasurePrecision(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)

	msg := randMsg(p, 0, 51)
	got := enc.Decode(dec.Decrypt(encryptor.Encrypt(enc.Encode(msg))))
	s := MeasurePrecision(msg, got)
	if s.Slots != len(msg) {
		t.Fatal("slot count")
	}
	if s.MeanBits < 15 || s.MeanBits > 60 {
		t.Fatalf("mean precision %.1f bits implausible", s.MeanBits)
	}
	if s.WorstBits > s.MeanBits {
		t.Fatal("worst-case bits cannot exceed mean bits")
	}
	// Identical vectors hit the ceiling, not +Inf.
	ident := MeasurePrecision(msg, msg)
	if ident.MeanBits != 60 || ident.WorstBits != 60 {
		t.Fatalf("identical vectors should clamp at the ceiling: %+v", ident)
	}
}

func TestNoiseBudget(t *testing.T) {
	p := testParams
	fresh := p.EstimateNoiseBudget(p.MaxLevel(), 0, 0)
	if !fresh.Decryptable() {
		t.Fatal("fresh full-depth ciphertext must be decryptable")
	}
	// Budget shrinks with level and with multiplications.
	low := p.EstimateNoiseBudget(2, 0, 0)
	if low.HeadroomBits >= fresh.HeadroomBits {
		t.Fatal("fewer limbs must mean less headroom")
	}
	mul := p.EstimateNoiseBudget(p.MaxLevel(), 1, 0)
	if mul.HeadroomBits >= fresh.HeadroomBits {
		t.Fatal("a plaintext multiplication must consume headroom")
	}
	// At 2 limbs (Q ≈ 2^72, Δ = 2^30) one more pt-mult still fits; two do not.
	two := p.EstimateNoiseBudget(2, 2, 0)
	if two.Decryptable() {
		t.Fatalf("two pt-mults at 2 limbs should exhaust 72-bit headroom: %+v", two)
	}
}
