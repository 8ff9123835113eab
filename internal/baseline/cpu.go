package baseline

import (
	"math"
	"runtime"
	"time"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// measureClient is the shared harness every live-CPU measurement runs on:
// one parameter build, one key pair, the client components, and a fixed
// pseudo-random message. Both the swlanes and decode experiments measure
// through this exact configuration, so their numbers stay comparable.
type measureClient struct {
	params    *ckks.Parameters
	enc       *ckks.Encoder
	encryptor *ckks.Encryptor
	dec       *ckks.Decryptor
	ev        *ckks.Evaluator
	msg       []complex128
}

// newMeasureClient builds the harness. workers <= 0 keeps the default
// engine (GOMAXPROCS lanes); otherwise a private engine is installed and
// released by close.
func newMeasureClient(spec ckks.ParamSpec, workers int) (*measureClient, error) {
	params, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if workers > 0 {
		params.SetWorkers(workers)
	}
	seed := prng.SeedFromUint64s(0xABC0FE, 0xBC0FE)
	kg := ckks.NewKeyGenerator(params, seed)
	sk, pk := kg.GenKeyPair()
	m := &measureClient{
		params:    params,
		enc:       ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		dec:       ckks.NewDecryptor(params, sk),
		ev:        ckks.NewEvaluator(params),
		msg:       make([]complex128, params.Slots()),
	}
	src := prng.NewSource(seed, 999)
	for i := range m.msg {
		m.msg[i] = complex(src.Float64()*2-1, src.Float64()*2-1)
	}
	return m, nil
}

func (m *measureClient) close() { m.params.Close() }

// minOfMS runs op once untimed (pool fill, page faults), then reports the
// fastest of iters timed runs in milliseconds: min-of-k, never a bare mean.
func minOfMS(iters int, op func()) float64 {
	op()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < max(iters, 1); i++ {
		start := time.Now()
		op()
		best = min(best, time.Since(start))
	}
	return float64(best) / float64(time.Millisecond)
}

// MeasureCPU times our own from-scratch Go CKKS client on the host — the
// independent CPU baseline (DESIGN.md: speed-ups are reported both against
// the paper's published CPU reference and against this live measurement,
// so the comparison never rests on anchors alone).
//
// The returned latencies are per-operation wall-clock milliseconds (one
// untimed warm-up, then the minimum of iters runs) for encode+encrypt at
// full depth and decrypt+decode at decLimbs. The client
// is pinned to one software lane so the baseline stays the *serial* CPU
// reference the accelerator comparisons (fig5a) are anchored against,
// independent of the host's core count; MeasureCPULanes exposes the
// worker axis for the swlanes sweep.
func MeasureCPU(spec ckks.ParamSpec, decLimbs, iters int) (encMS, decMS float64, err error) {
	return MeasureCPULanes(spec, decLimbs, iters, 1)
}

// MeasureCPULanes is MeasureCPU with an explicit software-lane (worker)
// count — the knob the swlanes experiment sweeps, mirroring the paper's
// Fig. 5b hardware lane sweep.
func MeasureCPULanes(spec ckks.ParamSpec, decLimbs, iters, workers int) (encMS, decMS float64, err error) {
	m, err := newMeasureClient(spec, workers)
	if err != nil {
		return 0, 0, err
	}
	defer m.close()

	var ct *ckks.Ciphertext
	encMS = minOfMS(iters, func() { ct = m.encryptor.Encrypt(m.enc.Encode(m.msg)) })
	low := m.ev.DropLevel(ct, decLimbs)
	decMS = minOfMS(iters, func() { _ = m.enc.Decode(m.dec.Decrypt(low)) })
	return encMS, decMS, nil
}

// MeasureDecode times the inbound client pipeline (decrypt at decLimbs +
// fast Combine-CRT decode through reused buffers) and reports both latency
// and heap allocations per operation — the measured counterpart of the
// accelerator's decode datapath, and the number the `decode` experiment
// tracks against the big.Int-path baseline (~9.7k allocs/op on the Test
// preset).
func MeasureDecode(spec ckks.ParamSpec, decLimbs, iters, workers int) (decMS, allocsPerOp float64, err error) {
	m, err := newMeasureClient(spec, workers)
	if err != nil {
		return 0, 0, err
	}
	defer m.close()
	iters = max(iters, 1)

	low := m.ev.DropLevel(m.encryptor.Encrypt(m.enc.Encode(m.msg)), decLimbs)
	out := make([]complex128, m.params.Slots())
	decode := func() {
		pt := m.dec.Decrypt(low)
		m.enc.DecodeInto(pt, out)
		m.params.PutPlaintext(pt)
	}
	decode() // warm the scratch pools so steady state is what's counted

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decMS = minOfMS(iters, decode)
	runtime.ReadMemStats(&m1)
	allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(iters+1) // minOfMS's own warm-up counts

	return decMS, allocsPerOp, nil
}
