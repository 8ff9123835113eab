package ckks

// Decode-path tests: the fast Combine-CRT pipeline against the big.Int
// oracle on live ciphertext data, worker-count bit-determinism, and the
// paper-style round-trip precision floor over random, adversarial and
// denormal inputs for every preset.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lanes"
	"repro/internal/prng"
	"repro/internal/ring"
)

// oracleDecode is Decode rebuilt on the exact big.Int/big.Float combine —
// the reference the fast decode is compared against on real plaintexts.
func oracleDecode(p *Parameters, pt *Plaintext) []complex128 {
	rl := p.RingAt(pt.Level)
	val := pt.Value
	var scratch *ring.Poly
	if val.IsNTT {
		scratch = rl.GetPolyCopy(val)
		rl.INTT(scratch)
		val = scratch
	}
	coeffs := make([]float64, p.N())
	limbs := make([]uint64, pt.Level)
	for j := 0; j < p.N(); j++ {
		for i := 0; i < pt.Level; i++ {
			limbs[i] = val.Coeffs[i][j]
		}
		coeffs[j] = rl.Basis.CombineCenteredFloatBig(limbs, pt.Scale)
	}
	rl.PutPoly(scratch)
	slots := p.Embedder().DecodeFromCoeffs(coeffs, p.FFTCtx())
	out := make([]complex128, p.Slots())
	for i, v := range slots {
		out[i] = complex(v.Re, v.Im)
	}
	return out
}

// TestDecodeMatchesOracle decrypts live ciphertexts at several levels and
// checks the fast decode against the big.Int reference decode slot by
// slot. Agreement must be far tighter than the message precision floor.
func TestDecodeMatchesOracle(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk, testSeed())
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	msg := randMsg(p, 0, 31)
	ct := encryptor.Encrypt(enc.Encode(msg))
	for _, level := range []int{p.MaxLevel(), 2, 1} {
		pt := dec.Decrypt(ev.DropLevel(ct, level))
		got := enc.Decode(pt)
		want := oracleDecode(p, pt)
		for i := range want {
			d := got[i] - want[i]
			if math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
				t.Fatalf("level %d slot %d: fast %v oracle %v", level, i, got[i], want[i])
			}
		}
		p.PutPlaintext(pt)
	}
}

// TestDecodeWorkerDeterminism asserts decode emits bit-identical slot
// values at worker counts 1, 2 and 8 — chunking may move coefficients
// between lanes but never change what any coefficient computes.
func TestDecodeWorkerDeterminism(t *testing.T) {
	var ref []complex128
	for _, w := range []int{1, 2, 8} {
		p := TestParams.MustBuild()
		p.SetWorkers(w)
		kg := NewKeyGenerator(p, testSeed())
		sk, pk := kg.GenKeyPair()
		enc := NewEncoder(p)
		encryptor := NewEncryptor(p, pk, testSeed())
		dec := NewDecryptor(p, sk)

		msg := randMsg(p, 0, 32)
		pt := dec.Decrypt(encryptor.Encrypt(enc.Encode(msg)))
		got := enc.Decode(pt)
		p.PutPlaintext(pt)
		p.Close()

		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(ref[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(ref[i])) {
				t.Fatalf("workers=%d slot %d: %v != 1-worker reference %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestDecodeIntoContract pins the DecodeInto buffer validation and the
// Decode/DecodeInto equivalence.
func TestDecodeIntoContract(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	pt := enc.Encode(randMsg(p, 0, 33))
	defer p.PutPlaintext(pt)

	out := make([]complex128, p.Slots())
	got := enc.DecodeInto(pt, out)
	if &got[0] != &out[0] {
		t.Fatal("DecodeInto must write into the provided buffer")
	}
	ref := enc.Decode(pt)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("slot %d: DecodeInto %v != Decode %v", i, got[i], ref[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short output buffer must panic")
		}
	}()
	enc.DecodeInto(pt, make([]complex128, p.Slots()-1))
}

// decodeInput builds one round-trip input class over the full slot count.
func decodeInput(p *Parameters, class string) []complex128 {
	msg := make([]complex128, p.Slots())
	switch class {
	case "random":
		src := prng.NewSource(prng.SeedFromUint64s(41, 42), 7)
		for i := range msg {
			msg[i] = complex(src.Float64()*2-1, src.Float64()*2-1)
		}
	case "adversarial": // max-magnitude, alternating-sign corners of the unit box
		for i := range msg {
			s := 1.0
			if i%2 == 1 {
				s = -1
			}
			msg[i] = complex(s, -s)
		}
	case "denormal": // denormal float64 components must decode to ~0, not NaN/Inf
		for i := range msg {
			d := 5e-324 * float64(1+i%3)
			if i%2 == 1 {
				d = -d
			}
			msg[i] = complex(d, -d)
		}
	default:
		panic("unknown input class " + class)
	}
	return msg
}

// roundTripFloor is the asserted paper-style precision floor (bits of
// worst-slot accuracy) per LogScale tier. Measured worst-slot values on
// the reference host: ≥45.8 bits for the Δ=2^66 presets (PN13–PN16, well
// above the paper's 19.29-bit bootstrapping threshold), 16.4 for Test
// (Δ=2^30) and 13.8 for Tiny (Δ=2^25); the floors leave ~3–6 bits of
// margin for host-to-host noise variation.
func roundTripFloor(spec ParamSpec) float64 {
	switch {
	case spec.LogScale >= 66:
		return 40
	case spec.LogScale >= 30:
		return 14
	default:
		return 11
	}
}

// TestDecryptDecodeRoundTripPrecision runs the full client pipeline —
// encode → encrypt (full depth) → drop to the 2-limb return level →
// decrypt → decode — for every preset and input class, asserting the
// worst-slot precision floor. The large rings only run without -short.
func TestDecryptDecodeRoundTripPrecision(t *testing.T) {
	presets := []struct {
		name string
		spec ParamSpec
	}{
		{"Test", TestParams}, {"Tiny", TinyParams}, {"PN13", PN13},
		{"PN14", PN14}, {"PN15", PN15}, {"PN16", PN16},
	}
	for _, pr := range presets {
		t.Run(pr.name, func(t *testing.T) {
			if testing.Short() && pr.spec.LogN >= 14 {
				t.Skipf("skipping logN=%d in -short mode", pr.spec.LogN)
			}
			p, err := pr.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			kg := NewKeyGenerator(p, testSeed())
			sk, pk := kg.GenKeyPair()
			enc := NewEncoder(p)
			encryptor := NewEncryptor(p, pk, testSeed())
			dec := NewDecryptor(p, sk)
			ev := NewEvaluator(p)
			floor := roundTripFloor(pr.spec)

			for _, class := range []string{"random", "adversarial", "denormal"} {
				msg := decodeInput(p, class)
				ct := encryptor.Encrypt(enc.Encode(msg))
				low := ev.DropLevel(ct, 2)
				pt := dec.Decrypt(low)
				got := enc.Decode(pt)
				p.PutPlaintext(pt)
				for i, v := range got {
					if cmplxIsBad(v) {
						t.Fatalf("%s slot %d decoded to %v", class, i, v)
					}
				}
				stats := MeasurePrecision(msg, got)
				t.Logf("%s: worst %.2f bits, mean %.2f bits", class, stats.WorstBits, stats.MeanBits)
				if stats.WorstBits < floor {
					t.Fatalf("%s: worst-slot precision %.2f bits below floor %.0f",
						class, stats.WorstBits, floor)
				}
			}
		})
	}
}

func cmplxIsBad(v complex128) bool {
	return math.IsNaN(real(v)) || math.IsNaN(imag(v)) ||
		math.IsInf(real(v), 0) || math.IsInf(imag(v), 0)
}

// TestDecodeScratchPoolRoundTrip makes dirty-pool reuse explicit: decode
// repeatedly with interleaved foreign pool traffic, expecting identical
// output every time (stale slab contents must never leak into results).
func TestDecodeScratchPoolRoundTrip(t *testing.T) {
	p := testParams
	enc := NewEncoder(p)
	pt := enc.Encode(randMsg(p, 0, 34))
	defer p.PutPlaintext(pt)

	ref := enc.Decode(pt)
	for iter := 0; iter < 5; iter++ {
		// Poison the pools decode draws from, then return the slabs dirty.
		s := lanes.GetSlab(pt.Level)
		for i := range s {
			s[i] = ^uint64(0)
		}
		lanes.PutSlab(s)
		f := lanes.GetFloatSlab(p.N())
		for i := range f {
			f[i] = math.Inf(1)
		}
		lanes.PutFloatSlab(f)

		got := enc.Decode(pt)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("iter %d slot %d: %v != %v after pool poisoning", iter, i, got[i], ref[i])
			}
		}
	}
}

// BenchmarkDecodeLevels tracks the combine cost across decode levels of
// the Test preset (level 2 is the paper's server-return configuration).
func BenchmarkDecodeLevels(b *testing.B) {
	p := TestParams.MustBuild()
	enc := NewEncoder(p)
	full := enc.Encode(randMsg(p, 0, 36))
	defer p.PutPlaintext(full)
	for _, level := range []int{1, 2, p.MaxLevel()} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			pt := &Plaintext{
				Value: &ring.Poly{Coeffs: full.Value.Coeffs[:level]},
				Level: level, Scale: p.Scale(),
			}
			out := make([]complex128, p.Slots())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.DecodeInto(pt, out)
			}
		})
	}
}
