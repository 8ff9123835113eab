package main

import (
	"fmt"
	"runtime"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/fftfp"
	"repro/internal/prng"
)

// bootchainRunner is bootchain_pn14: the bootstrap-shaped chain
//
//	CoeffsToSlots (StartLevel 24, Levels 3) → EvalMod ×2 (degree 7,
//	range 8, at the DFT's MidLevel 18) → SlotsToCoeffs
//
// The second DFT is compiled with StartLevel 14 so that its MidLevel is
// the level EvalMod leaves its outputs at (8); the result lands at level
// 2. PN14 / Levels 3 / degree 7 is the shipped schedule whose full chain
// fits 24 limbs and this machine's memory.
type bootchainRunner struct {
	rng splitmix

	owner  *abcfhe.KeyOwner
	server *abcfhe.Server
	evk    *abcfhe.EvaluationKeys
	c2s    *abcfhe.HomomorphicDFT
	s2c    *abcfhe.HomomorphicDFT
	mod    *abcfhe.EvalMod

	in      []*abcfhe.Ciphertext
	shadow  [][]complex128
	inBytes int64
}

func newBootchainRunner(seed uint64) *bootchainRunner {
	return &bootchainRunner{rng: splitmix{s: seed}}
}

const (
	bootPreset     = abcfhe.PN14
	bootDFTLevels  = 3
	bootStartLevel = 24
	bootS2CStart   = 14
	bootModDegree  = 7
	bootModRange   = 8.0
	bootInputs     = 2
)

func (b *bootchainRunner) setup(tr *tracer) (int64, error) {
	keys := b.rng.fork(1)
	id := tr.begin("keyowner.keygen_s", noSpan, -1)
	owner, err := abcfhe.NewKeyOwner(bootPreset, keys.next(), keys.next())
	tr.end(id)
	if err != nil {
		return 0, err
	}
	b.owner = owner
	pk, err := owner.ExportPublicKey()
	if err != nil {
		return 0, err
	}
	device, err := abcfhe.NewEncryptor(pk, keys.next(), keys.next())
	if err != nil {
		return 0, err
	}
	defer device.Close()
	if b.server, err = abcfhe.NewServer(bootPreset); err != nil {
		return 0, err
	}
	runtime.GC()

	evk, evkBytes, err := exportImportKeys(owner, b.server, abcfhe.EvalKeyConfig{
		Rotations: abcfhe.HomomorphicDFTRotations(owner.Slots(), bootDFTLevels),
		Conjugate: true,
	}, tr)
	if err != nil {
		return 0, err
	}
	b.evk = evk

	id = tr.begin("server.plan_build_s", noSpan, -1)
	err = b.buildPlans()
	tr.end(id)
	if err != nil {
		return 0, err
	}
	runtime.GC()

	msgRng := b.rng.fork(2)
	for k := 0; k < bootInputs; k++ {
		msg := msgRng.message(owner.Slots())
		ct, err := device.EncodeEncrypt(msg)
		if err != nil {
			return 0, err
		}
		blob, err := device.SerializeCiphertext(ct)
		if err != nil {
			return 0, err
		}
		sct, err := b.server.DeserializeCiphertext(blob)
		if err != nil {
			return 0, err
		}
		b.in = append(b.in, sct)
		b.shadow = append(b.shadow, bootShadow(msg))
		b.inBytes = int64(len(blob))
	}
	runtime.GC()
	if out := b.iterate(passWarmup, 0, true, nil); out.err != nil {
		return 0, fmt.Errorf("warm-up: %w", out.err)
	}
	return int64(len(pk)) + evkBytes, nil
}

func (b *bootchainRunner) buildPlans() error {
	var err error
	if b.c2s, err = b.server.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: bootStartLevel, Levels: bootDFTLevels}); err != nil {
		return err
	}
	if b.mod, err = b.server.NewEvalMod(abcfhe.EvalModConfig{Degree: bootModDegree, Range: bootModRange, Level: b.c2s.MidLevel()}); err != nil {
		return err
	}
	if b.s2c, err = b.server.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: bootS2CStart, Levels: bootDFTLevels}); err != nil {
		return err
	}
	if got, want := b.s2c.MidLevel(), b.mod.Level()-b.mod.Depth(); got != want {
		return fmt.Errorf("schedule mismatch: SlotsToCoeffs consumes level %d, EvalMod leaves level %d", got, want)
	}
	return nil
}

// bootShadow is the full-chain plaintext shadow: CoeffsToSlots exposes
// the message polynomial's (unscaled) coefficients as slot values,
// EvalMod applies the sine surrogate to each, and SlotsToCoeffs reads the
// results back as coefficients — so the output decodes to the special FFT
// of the surrogate applied coefficient-wise to the encoding of z.
func bootShadow(z []complex128) []complex128 {
	logN := 0
	for 1<<logN < 2*len(z) {
		logN++
	}
	emb, ctx := fftfp.NewEmbedder(logN), fftfp.NewCtx(fftfp.Float64Mantissa)
	msg := make([]fftfp.Complex, len(z))
	for i, v := range z {
		msg[i] = fftfp.Complex{Re: real(v), Im: imag(v)}
	}
	coeffs := emb.EncodeToCoeffs(msg, ctx)
	for i, c := range coeffs {
		coeffs[i] = fftfp.SinSurrogate(c, bootModDegree, bootModRange)
	}
	vals := emb.DecodeFromCoeffs(coeffs, ctx)
	out := make([]complex128, len(vals))
	for i, v := range vals {
		out[i] = complex(v.Re, v.Im)
	}
	return out
}

func (b *bootchainRunner) iterate(pass, i int, verify bool, tr *tracer) iterOut {
	k := i % len(b.in)
	srv, evk := b.server, b.evk
	root := tr.begin(spanIteration, noSpan, i)
	t0 := time.Now()

	id := tr.begin("server.c2s_ms", root, i)
	re, im, err := srv.CoeffsToSlots(b.in[k], b.c2s, evk)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.evalmod_ms", root, i) // both halves
	re, err = srv.EvalMod(re, b.mod, evk)
	if err == nil {
		im, err = srv.EvalMod(im, b.mod, evk)
	}
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.s2c_ms", root, i)
	ct, err := srv.SlotsToCoeffs(re, im, b.s2c, evk)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}

	out := iterOut{latency: time.Since(t0), bits: -1}
	tr.end(root)
	return finishServerIteration(out, srv, b.owner, ct, b.inBytes, verify, b.shadow[k])
}

func (b *bootchainRunner) layerMetrics(tr *tracer, out metricSet) {
	spanMedians(tr.snapshot(), out, "server.c2s_ms", "server.evalmod_ms", "server.s2c_ms")
}

// probes times the two scheme-layer ops the chain is made of — one
// factor of the homomorphic DFT (a BSGS LinearTransform over hoisted
// rotations) and one degree-7 polynomial evaluation — each with only the
// keys it needs, plus the kernels underneath at PN14's shape.
func (b *bootchainRunner) probes(out metricSet) {
	p := ckks.PN14.MustBuild()
	defer p.Close()
	kernelProbes(p, out)

	seed := prng.SeedFromUint64s(b.rng.fork(3).next(), 1)
	kg := ckks.NewKeyGenerator(p, seed)
	sk, pk := kg.GenKeyPair()
	enc, ev := ckks.NewEncoder(p), ckks.NewEvaluator(p)
	ct := ckks.NewEncryptor(p, pk, seed).Encrypt(enc.Encode(b.rng.fork(4).message(p.Slots())))

	dft := enc.NewHomomorphicDFT(ckks.HomomorphicDFTConfig{StartLevel: bootStartLevel, Levels: bootDFTLevels})
	factor := dft.C2S[0]
	ks := kg.GenEvaluationKeySet(sk, factor.Level, factor.Rotations(), false, ckks.GadgetHybrid)
	in := ev.DropLevel(ct, factor.Level)
	out.set("ckks.lintrans_ms", ms(minOf(3, func() { ev.LinearTransform(in, factor, ks.Rot) })))

	mono := make([]complex128, bootModDegree+1)
	for i := range mono {
		mono[i] = complex(1/float64(i+1), 0)
	}
	plan := p.NewEvalPolyPlan(mono, -1, 1, dft.MidLevel)
	polyIn := ev.DropLevel(ct, plan.Level())
	out.set("ckks.evalpoly_ms", ms(minOf(3, func() { ev.EvalPoly(polyIn, plan, ks.Rlk) })))
}

func (b *bootchainRunner) close() {
	if b.owner != nil {
		b.owner.Close()
	}
	if b.server != nil {
		b.server.Close()
	}
}
