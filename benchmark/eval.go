package main

import (
	"crypto/sha256"
	"fmt"
	"math/cmplx"
	"runtime"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/prng"
)

// evalRunner is eval_pn15: the keyless Server on pre-encrypted inputs,
// seven ops chained —
//
//	Mul(x,y) → Rescale → Rotate(·,1) → Conjugate → InnerSum(·,8)
//	→ Add(·, the Conjugate output) → MulConst(·,0.5)
//
// with full-depth hybrid keys for InnerSumRotations(8) ∪ {1} and the
// conjugation. Inputs cycle over evalPairs pre-encrypted pairs that
// crossed the device→server boundary during set-up.
type evalRunner struct {
	preset abcfhe.Preset
	rng    splitmix
	spec   ckks.ParamSpec // read back from the public-key blob; the probes build on it

	owner  *abcfhe.KeyOwner
	server *abcfhe.Server
	evk    *abcfhe.EvaluationKeys

	x, y    []*abcfhe.Ciphertext
	shadow  [][]complex128
	inBytes int64 // serialized bytes of one input pair
}

func newEvalRunner(preset abcfhe.Preset, seed uint64) *evalRunner {
	return &evalRunner{preset: preset, rng: splitmix{s: seed}}
}

const (
	evalPairs = 4
	evalSpan  = 8
)

// evalRotations is the rotation set both key-switching workloads export:
// the inner-sum ladder plus step 1 (already in it, kept explicit).
func evalRotations() []int { return append(abcfhe.InnerSumRotations(evalSpan), 1) }

// exportImportKeys runs the key owner → server key shipment every keyed
// workload shares, with its set-up spans and a GC at each phase boundary
// (without them peak RSS swings by hundreds of MB between identical
// runs). The blob is dropped before returning; its size is the result.
func exportImportKeys(owner *abcfhe.KeyOwner, server *abcfhe.Server, cfg abcfhe.EvalKeyConfig, tr *tracer) (*abcfhe.EvaluationKeys, int64, error) {
	id := tr.begin("keyowner.export_evk_s", noSpan, -1)
	blob, err := owner.ExportEvaluationKeys(cfg)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	id = tr.begin("server.import_evk_s", noSpan, -1)
	evk, err := server.ImportEvaluationKeys(blob)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	size := int64(len(blob))
	blob = nil
	runtime.GC()
	return evk, size, nil
}

func (e *evalRunner) setup(tr *tracer) (int64, error) {
	keys := e.rng.fork(1)
	id := tr.begin("keyowner.keygen_s", noSpan, -1)
	owner, err := abcfhe.NewKeyOwner(e.preset, keys.next(), keys.next())
	tr.end(id)
	if err != nil {
		return 0, err
	}
	e.owner = owner
	pk, err := owner.ExportPublicKey()
	if err != nil {
		return 0, err
	}
	if e.spec, _, err = ckks.ReadKeySpec(pk); err != nil {
		return 0, err
	}
	device, err := abcfhe.NewEncryptor(pk, keys.next(), keys.next())
	if err != nil {
		return 0, err
	}
	defer device.Close()
	if e.server, err = abcfhe.NewServer(e.preset); err != nil {
		return 0, err
	}
	runtime.GC()
	evk, evkBytes, err := exportImportKeys(owner, e.server,
		abcfhe.EvalKeyConfig{Rotations: evalRotations(), Conjugate: true}, tr)
	if err != nil {
		return 0, err
	}
	e.evk = evk

	// Inputs: encrypted on the device, shipped as bytes, parsed by the
	// server — so the ciphertexts the loop consumes did cross the wire.
	msgRng := e.rng.fork(2)
	slots := owner.Slots()
	for p := 0; p < evalPairs; p++ {
		mx, my := msgRng.message(slots), msgRng.message(slots)
		var pair [2]*abcfhe.Ciphertext
		for j, m := range [][]complex128{mx, my} {
			ct, err := device.EncodeEncrypt(m)
			if err != nil {
				return 0, err
			}
			blob, err := device.SerializeCiphertext(ct)
			if err != nil {
				return 0, err
			}
			if pair[j], err = e.server.DeserializeCiphertext(blob); err != nil {
				return 0, err
			}
			if p == 0 {
				e.inBytes += int64(len(blob))
			}
		}
		e.x, e.y = append(e.x, pair[0]), append(e.y, pair[1])
		e.shadow = append(e.shadow, evalShadow(mx, my))
	}
	runtime.GC()
	if out := e.iterate(passWarmup, 0, true, nil); out.err != nil {
		return 0, fmt.Errorf("warm-up: %w", out.err)
	}
	return int64(len(pk)) + evkBytes, nil
}

// evalShadow is the complex128 shadow of the seven-op chain.
func evalShadow(x, y []complex128) []complex128 {
	n := len(x)
	conj := make([]complex128, n)
	for i := range conj {
		j := (i + 1) % n
		conj[i] = cmplx.Conj(x[j] * y[j]) // Mul, Rescale, Rotate(1), Conjugate
	}
	out := make([]complex128, n)
	for i := range out {
		sum := complex(0, 0)
		for s := 0; s < evalSpan; s++ {
			sum += conj[(i+s)%n] // InnerSum(8)
		}
		out[i] = 0.5 * (sum + conj[i]) // Add, MulConst(0.5)
	}
	return out
}

func (e *evalRunner) iterate(pass, i int, verify bool, tr *tracer) iterOut {
	p := i % len(e.x)
	srv, evk := e.server, e.evk
	root := tr.begin(spanIteration, noSpan, i)
	t0 := time.Now()

	id := tr.begin("server.mul_ms", root, i)
	ct, err := srv.Mul(e.x[p], e.y[p], evk)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.rescale_ms", root, i)
	ct, err = srv.Rescale(ct)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.rotate_ms", root, i)
	ct, err = srv.Rotate(ct, 1, evk)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.conjugate_ms", root, i)
	conj, err := srv.Conjugate(ct, evk)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.innersum_ms", root, i)
	ct, err = srv.InnerSum(conj, evalSpan, evk)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.add_ms", root, i)
	ct, err = srv.Add(ct, conj)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.mulconst_ms", root, i)
	ct, err = srv.MulConst(ct, 0.5)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}

	out := iterOut{latency: time.Since(t0), bits: -1}
	tr.end(root)
	return finishServerIteration(out, srv, e.owner, ct, e.inBytes, verify, e.shadow[p])
}

// finishServerIteration is the untimed tail the server-side workloads
// share: serialize the result for the wire count and the digest, and on
// verified iterations let the owner decrypt it against the shadow.
func finishServerIteration(out iterOut, srv *abcfhe.Server, owner *abcfhe.KeyOwner, ct *abcfhe.Ciphertext,
	inBytes int64, verify bool, shadow []complex128) iterOut {
	blob, err := srv.SerializeCiphertext(ct)
	if err != nil {
		return iterOut{err: err}
	}
	out.wire = inBytes + int64(len(blob))
	out.hash = sha256.Sum256(blob)
	if verify {
		oct, err := owner.DeserializeCiphertext(blob)
		if err != nil {
			return iterOut{err: err}
		}
		got, err := owner.DecryptDecode(oct)
		if err != nil {
			return iterOut{err: err}
		}
		out.bits = ckks.MeasurePrecision(shadow, got).WorstBits
	}
	return out
}

var evalSpanNames = []string{
	"server.mul_ms", "server.rescale_ms", "server.rotate_ms", "server.conjugate_ms",
	"server.innersum_ms", "server.add_ms", "server.mulconst_ms",
}

func (e *evalRunner) layerMetrics(tr *tracer, out metricSet) {
	spanMedians(tr.snapshot(), out, evalSpanNames...)
}

func (e *evalRunner) probes(out metricSet) {
	p := e.spec.MustBuild()
	defer p.Close()
	kernelProbes(p, out)
	keySwitchProbes(p, e.rng.fork(3).next(), out)
}

// keySwitchProbes times the scheme layer's key-switching ops at p's full
// depth, and the evaluation-key life cycle (generate, marshal, unmarshal)
// for a nine-key set: relinearization plus the eight rotations the
// hoisted probe shares one decomposition across.
func keySwitchProbes(p *ckks.Parameters, seedWord uint64, out metricSet) {
	seed := prng.SeedFromUint64s(seedWord, 1)
	kg := ckks.NewKeyGenerator(p, seed)
	sk, pk := kg.GenKeyPair()
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}

	var ks *ckks.EvaluationKeySet
	t0 := time.Now()
	ks = kg.GenEvaluationKeySet(sk, p.MaxLevel(), steps, false, ckks.GadgetHybrid)
	out.set("ckks.gen_evk_s", time.Since(t0).Seconds())
	t0 = time.Now()
	blob := mustBytes(p.MarshalEvaluationKeySet(ks))
	out.set("ckks.marshal_evk_s", time.Since(t0).Seconds())
	ks = nil
	runtime.GC()
	t0 = time.Now()
	ks, err := p.UnmarshalEvaluationKeySet(blob)
	if err != nil {
		panic(err)
	}
	out.set("ckks.unmarshal_evk_s", time.Since(t0).Seconds())
	// Bytes of key material one switch at full depth streams through.
	out.set("computed.key_mb_per_switch", float64(len(blob))/float64(1+len(steps))/1e6)
	blob = nil
	runtime.GC()

	enc, ev := ckks.NewEncoder(p), ckks.NewEvaluator(p)
	msg := (&splitmix{s: seedWord}).message(p.Slots())
	pt := enc.Encode(msg)
	ct := ckks.NewEncryptor(p, pk, seed).Encrypt(pt)
	rks := make([]*ckks.RotationKey, len(steps))
	for i, s := range steps {
		rks[i] = ks.Rot[s]
	}
	out.set("ckks.mulrelin_ms", ms(minOf(3, func() { ev.MulRelin(ct, ct, ks.Rlk) })))
	out.set("ckks.rotate_galois_ms", ms(minOf(3, func() { ev.RotateGalois(ct, rks[0]) })))
	out.set("ckks.rotate_hoisted8_ms", ms(minOf(3, func() { ev.RotateHoisted(ct, rks) })))
	prod := ev.MulRelin(ct, ct, ks.Rlk)
	out.set("ckks.rescale_ms", ms(minOf(5, func() { ev.Rescale(prod) })))
	out.set("ckks.mulplain_ms", ms(minOf(5, func() { ev.MulPlain(ct, pt) })))
}

func (e *evalRunner) close() {
	if e.owner != nil {
		e.owner.Close()
	}
	if e.server != nil {
		e.server.Close()
	}
}
