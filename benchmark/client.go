package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/core"
	"repro/internal/prng"
)

// clientRunner is client_pn16: the round trip a device and its key owner
// wait on, through all three roles and both wire crossings —
//
//	Encryptor.EncodeEncrypt (full depth) → SerializeCiphertext
//	→ Server.DeserializeCiphertext → DropLevel(returnLevel) → SerializeCiphertext
//	→ KeyOwner.DeserializeCiphertext → DecryptDecode
//
// No evaluation key exists anywhere in it. The preset and return level are
// parameters only so the unit tests can smoke the same code at Test size.
type clientRunner struct {
	preset      abcfhe.Preset
	returnLevel int
	rng         splitmix
	spec        ckks.ParamSpec // read back from the public-key blob; the probes build on it

	owner  *abcfhe.KeyOwner
	device *abcfhe.Encryptor
	server *abcfhe.Server
	msgs   [][]complex128 // message pool, cycled by iteration index
}

func newClientRunner(preset abcfhe.Preset, returnLevel int, seed uint64) *clientRunner {
	return &clientRunner{preset: preset, returnLevel: returnLevel, rng: splitmix{s: seed}}
}

const clientMessagePool = 8

func (c *clientRunner) setup(tr *tracer) (int64, error) {
	keys := c.rng.fork(1)
	id := tr.begin("keyowner.keygen_s", noSpan, -1)
	owner, err := abcfhe.NewKeyOwner(c.preset, keys.next(), keys.next())
	tr.end(id)
	if err != nil {
		return 0, err
	}
	c.owner = owner
	pk, err := owner.ExportPublicKey()
	if err != nil {
		return 0, err
	}
	if c.spec, _, err = ckks.ReadKeySpec(pk); err != nil {
		return 0, err
	}
	runtime.GC()
	if c.device, err = abcfhe.NewEncryptor(pk, keys.next(), keys.next()); err != nil {
		return 0, err
	}
	if c.server, err = abcfhe.NewServer(c.preset); err != nil {
		return 0, err
	}
	msgRng := c.rng.fork(2)
	for i := 0; i < clientMessagePool; i++ {
		c.msgs = append(c.msgs, msgRng.message(owner.Slots()))
	}
	runtime.GC()
	if out := c.iterate(passWarmup, 0, true, nil); out.err != nil {
		return 0, fmt.Errorf("warm-up: %w", out.err)
	}
	return int64(len(pk)), nil
}

func (c *clientRunner) iterate(pass, i int, verify bool, tr *tracer) iterOut {
	msg := c.msgs[i%len(c.msgs)]
	root := tr.begin(spanIteration, noSpan, i)
	t0 := time.Now()

	id := tr.begin("encryptor.encode_encrypt_ms", root, i)
	ct, err := c.device.EncodeEncrypt(msg)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("encryptor.serialize_ms", root, i)
	up, err := c.device.SerializeCiphertext(ct)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.deserialize_ms", root, i)
	sct, err := c.server.DeserializeCiphertext(up)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.droplevel_ms", root, i)
	low, err := c.server.DropLevel(sct, c.returnLevel)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("server.serialize_ms", root, i)
	down, err := c.server.SerializeCiphertext(low)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("keyowner.deserialize_ms", root, i)
	oct, err := c.owner.DeserializeCiphertext(down)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}
	id = tr.begin("keyowner.decrypt_decode_ms", root, i)
	got, err := c.owner.DecryptDecode(oct)
	tr.end(id)
	if err != nil {
		return iterOut{err: err}
	}

	out := iterOut{latency: time.Since(t0), wire: int64(len(up) + len(down)), bits: -1}
	tr.end(root)
	out.hash = sha256.Sum256(down)
	if verify {
		out.bits = ckks.MeasurePrecision(msg, got).WorstBits
	}
	return out
}

var clientSpanNames = []string{
	"encryptor.encode_encrypt_ms", "encryptor.serialize_ms", "server.deserialize_ms",
	"server.droplevel_ms", "server.serialize_ms", "keyowner.deserialize_ms",
	"keyowner.decrypt_decode_ms", "keyowner.encrypt_compressed_ms", "server.expand_ms",
}

// seededPath runs the compressed-upload alternative once per traced
// iteration, after the pass so its allocations do not disturb the
// iterations being traced: what the owner-side seeded form costs and
// saves against the public-key upload the pass measured.
func (c *clientRunner) seededPath(tr *tracer, iterations int) error {
	for i := 0; i < iterations; i++ {
		id := tr.begin("keyowner.encrypt_compressed_ms", noSpan, i)
		blob, err := c.owner.EncodeEncryptCompressed(c.msgs[i%len(c.msgs)])
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("server.expand_ms", noSpan, i)
		_, err = c.server.ExpandCompressedUpload(blob)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *clientRunner) layerMetrics(tr *tracer, out metricSet) {
	if err := c.seededPath(tr, len(durationsOf(tr.snapshot(), spanIteration))); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: seeded upload path:", err)
	}
	spans := tr.snapshot()
	spanMedians(spans, out, clientSpanNames...)
	out.set("client.roundtrip_ms_p90", percentile(durationsOf(spans, spanIteration), 90))
	full, err1 := c.owner.CiphertextWireBytes(c.owner.MaxLevel())
	seeded, err2 := c.owner.CompressedWireBytes(c.owner.MaxLevel())
	if err1 == nil && err2 == nil {
		out.set("client.compressed_wire_ratio", float64(seeded)/float64(full))
	}

	// The paper's chip model against the measured software path: the
	// repo's analogue of the 1112× / 214× headline ratios.
	sum := core.Default().Summarize()
	out.set("model.enc_ms", sum.EncMS)
	out.set("model.dec_ms", sum.DecMS)
	out.set("sched.enc_mops", sum.EncMOPs)
	out.set("sched.dec_mops", sum.DecMOPs)
	encMS, decMS := out["encryptor.encode_encrypt_ms"].Value, out["keyowner.decrypt_decode_ms"].Value
	out.set("model.enc_speedup", encMS/sum.EncMS)
	out.set("model.dec_speedup", decMS/sum.DecMS)
	out.set("client.enc_mops_per_s", sum.EncMOPs/(encMS/1e3))
}

func (c *clientRunner) probes(out metricSet) {
	p := c.spec.MustBuild()
	defer p.Close()
	kernelProbes(p, out)
	transformProbes(p, out)

	seed := prng.SeedFromUint64s(c.rng.fork(3).next(), 0)
	sk, pk := ckks.NewKeyGenerator(p, seed).GenKeyPair()
	enc, encryptor, dec := ckks.NewEncoder(p), ckks.NewEncryptor(p, pk, seed), ckks.NewDecryptor(p, sk)
	seeded := ckks.NewSeededEncryptor(p, sk, seed)
	ev := ckks.NewEvaluator(p)
	msg := c.msgs[0]

	out.set("ckks.encode_ms", ms(minOf(5, func() { p.PutPlaintext(enc.Encode(msg)) })))
	pt := enc.Encode(msg)
	out.set("ckks.encrypt_ms", ms(minOf(5, func() { encryptor.Encrypt(pt) })))
	ct := encryptor.Encrypt(pt)
	low := ev.DropLevel(ct, c.returnLevel)
	out.set("ckks.decrypt_ms", ms(minOf(5, func() { p.PutPlaintext(dec.Decrypt(low)) })))
	lowPt := dec.Decrypt(low)
	slots := make([]complex128, p.Slots())
	out.set("ckks.decode_ms", ms(minOf(5, func() { enc.DecodeInto(lowPt, slots) })))
	out.set("ckks.marshal_ct_ms", ms(minOf(5, func() { mustBytes(p.MarshalCiphertext(ct, true)) })))
	blob := mustBytes(p.MarshalCiphertext(ct, true))
	out.set("ckks.unmarshal_ct_ms", ms(minOf(5, func() {
		if _, err := p.UnmarshalCiphertext(blob); err != nil {
			panic(err)
		}
	})))
	out.set("ckks.seeded_encrypt_ms", ms(minOf(5, func() { seeded.Encrypt(pt) })))
	sct := seeded.Encrypt(pt)
	out.set("ckks.expand_ms", ms(minOf(5, func() { p.Expand(sct) })))
}

func (c *clientRunner) close() {
	if c.owner != nil {
		c.owner.Close()
	}
	if c.device != nil {
		c.device.Close()
	}
	if c.server != nil {
		c.server.Close()
	}
}

// mustBytes unwraps a marshal result inside a probe: the inputs are the
// probe's own freshly built values, so an error is a bug, not a condition.
func mustBytes(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}
