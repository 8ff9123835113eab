package ckks

// Allocation budgets of the hot client and server ops, and the one
// relative timing claim the BSGS linear transform exists for. Every row
// runs on the fast kernels, the one binding production runs, from fixed
// seeds, so the ceilings gate one configuration. allocs/op is deterministic up to
// lane-dispatch bookkeeping, which grows with the worker count: the
// Test-preset rows run at one worker and at the default count, and every
// ceiling sits at least 1.5× above the largest reading at GOMAXPROCS 1, 2
// and 4. Absolute wall-clock is measured by the repo benchmark
// (benchmark/), never gated here.

import (
	"flag"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fftfp"
	"repro/internal/prng"
	"repro/internal/ring"
)

// budgetSink keeps a measured allocation on the heap.
var budgetSink *ring.Poly

// budgetSeed derives every key and encryption seed of the budget fixtures.
func budgetSeed() [16]byte { return prng.SeedFromUint64s(0xB5, 0xC4) }

// budgetParty is one parameter set on the fast backend with a key pair and
// the scheme objects the budget rows drive.
type budgetParty struct {
	p         *Parameters
	kg        *KeyGenerator
	sk        *SecretKey
	enc       *Encoder
	encryptor *Encryptor
	dec       *Decryptor
	ev        *Evaluator
	msg       []complex128
}

func newBudgetParty(spec ParamSpec) *budgetParty {
	p := spec.MustBuild()
	kg := NewKeyGenerator(p, budgetSeed())
	sk, pk := kg.GenKeyPair()
	msg := make([]complex128, p.Slots())
	src := prng.NewSource(prng.SeedFromUint64s(1, 2), 0)
	for i := range msg {
		msg[i] = complex(src.Float64()-0.5, src.Float64()-0.5)
	}
	return &budgetParty{
		p: p, kg: kg, sk: sk,
		enc:       NewEncoder(p),
		encryptor: NewEncryptor(p, pk, budgetSeed()),
		dec:       NewDecryptor(p, sk),
		ev:        NewEvaluator(p),
		msg:       msg,
	}
}

// encrypt returns a fresh max-level encryption of the party's message.
func (b *budgetParty) encrypt() *Ciphertext { return b.encryptor.Encrypt(b.enc.Encode(b.msg)) }

// bsgsBand is a 12-diagonal band at n1 = 8 on the Test preset. The BSGS
// schedule pays one shared hoisted decomposition for all seven baby steps
// plus one giant key switch, where the naive schedule pays eleven
// independent rotations. The naive baseline is charged only its rotations,
// none of the diagonal multiplies, so the comparison is conservative.
type bsgsBand struct {
	ev    *Evaluator
	ct    *Ciphertext
	lt    *LinearTransform
	rot   map[int]*RotationKey
	steps []int // the naive schedule: one rotation per nonzero diagonal index
}

func newBSGSBand(b *budgetParty) *bsgsBand {
	const diags = 12
	band := map[int][]complex128{}
	for d := 0; d < diags; d++ {
		v := make([]complex128, b.p.Slots())
		for r := range v {
			v[r] = complex(float64((r+3*d)%7)/7-0.5, float64((r+d)%5)/5-0.5)
		}
		band[d] = v
	}
	level := 2 * b.p.RescalesPerLevel() // the transform's minimum legal level
	lt := b.enc.NewLinearTransform(band, level, 8)
	steps := make([]int, 0, diags-1)
	for d := 1; d < diags; d++ {
		steps = append(steps, d)
	}
	ks := b.kg.GenEvaluationKeySet(b.sk, level,
		append(append([]int{}, lt.Rotations()...), steps...), false, GadgetHybrid)
	return &bsgsBand{ev: b.ev, ct: b.ev.DropLevel(b.encrypt(), level), lt: lt, rot: ks.Rot, steps: steps}
}

func (l *bsgsBand) bsgs() { l.ev.LinearTransform(l.ct, l.lt, l.rot) }

func (l *bsgsBand) naive() {
	for _, d := range l.steps {
		l.ev.RotateGalois(l.ct, l.rot[d])
	}
}

// checkAllocs fails t when op allocates more than ceiling objects per
// call. AllocsPerRun calls op once before it counts, which populates the
// pools: the ceilings gate the steady state.
func checkAllocs(t *testing.T, ceiling float64, runs int, op func()) {
	t.Helper()
	n := testing.AllocsPerRun(runs, op)
	t.Logf("%.0f allocs/op (ceiling %.0f)", n, ceiling)
	if n > ceiling {
		t.Errorf("%.0f allocs/op exceeds the ceiling %.0f", n, ceiling)
	}
}

// TestAllocationBudgets pins the steady-state allocations per call of the
// client pipeline, the key switches and the bootstrap stages. The
// ceilings are about what must not appear: one O(N) buffer per limb or
// digit would blow past any of them at once.
func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under -race; allocation counts there are not the program's")
	}
	b := newBudgetParty(TestParams)
	defer b.p.Close()
	ct := b.encrypt()
	low := b.ev.DropLevel(b.encrypt(), 2)
	out := make([]complex128, b.p.Slots())
	rot := b.kg.GenRotationKeyHybridAt(b.p.GaloisElement(1), b.p.MaxLevel())
	rlk := b.kg.GenRelinearizationKeyHybridAt(b.p.MaxLevel())
	band := newBSGSBand(b)
	rows := []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"EncodeEncrypt", 72, func() {
			pt := b.enc.Encode(b.msg)
			b.encryptor.Encrypt(pt)
			b.p.PutPlaintext(pt)
		}},
		{"DecryptDecode", 24, func() {
			pt := b.dec.Decrypt(low)
			b.enc.DecodeInto(pt, out)
			b.p.PutPlaintext(pt)
		}},
		{"RotateHybrid", 44, func() { b.ev.RotateGalois(ct, rot) }},
		{"MulRelin", 128, func() { b.ev.MulRelin(ct, ct, rlk) }},
		{"LinearTransformBSGS", 360, band.bsgs},
		{"LinearTransformNaive", 464, band.naive},
	}
	for _, workers := range []string{"1", "default"} {
		if workers == "1" {
			b.p.SetWorkers(1)
		} else {
			b.p.Close() // back to the process-wide engine
		}
		for _, r := range rows {
			t.Run(r.name+"/workers="+workers, func(t *testing.T) { checkAllocs(t, r.ceiling, 20, r.op) })
		}
	}

	// Evaluation-key import at PN13 (relinearization, conjugation and two
	// rotations at full depth, β = 4), at the default worker count. Import
	// regenerates every mask row from the blob's seed; a row may cost its
	// two key polys and nothing else — no sampler state, no scratch. The
	// depth-α set (β = 1) has the same keys and dispatches, so the
	// difference between the two readings is exactly the extra rows' polys.
	t.Run("UnmarshalEvalKeysPN13", func(t *testing.T) {
		b := newBudgetParty(PN13)
		defer b.p.Close()
		importAllocs := func(depth int) (float64, func()) {
			ks := b.kg.GenEvaluationKeySet(b.sk, depth, []int{1, 5}, true, GadgetHybrid)
			blob, err := b.p.MarshalEvaluationKeySet(ks)
			if err != nil {
				t.Fatal(err)
			}
			op := func() {
				if _, err := b.p.UnmarshalEvaluationKeySet(blob); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(5, op), op
		}
		full, op := importAllocs(b.p.MaxLevel())
		shallow, _ := importAllocs(b.p.SpecialLimbs)
		checkAllocs(t, 224, 5, op)

		const keys = 4
		rows := keys * (b.p.DnumAt(b.p.MaxLevel()) - 1)
		rqp := b.p.RingQPAt(b.p.MaxLevel())
		perPoly := testing.AllocsPerRun(5, func() { budgetSink = rqp.NewPoly() })
		if extra := full - shallow; extra > 2*perPoly*float64(rows) {
			t.Errorf("%d extra key rows cost %.0f allocs, want ≤ %.0f (two polys of %.0f allocs each)", rows, extra, 2*perPoly*float64(rows), perPoly)
		}
	})

	// Paper scale, at the default worker count. Each row builds its own
	// keys, so the rows peak at one key set — still ≈ 3.5 GB of RSS for
	// CoeffsToSlots, most of it the depth-10 DFT's CoeffsToSlots diagonals
	// (4 852 Q·P limb rows, 1.27 GB, encoded on the first call, which
	// AllocsPerRun's warm-up makes; the SlotsToCoeffs direction is never
	// applied, so never encoded) and its 52 rotation keys. An unfiltered `go test ./...`
	// runs this package beside the root package, whose PN15 round trips
	// hold ≈ 7 GB; together they exhaust an 8 GB box, so these rows run
	// only when -run names the tests to run (CI's allocation-budget step
	// does).
	t.Run("PN15", func(t *testing.T) {
		if testing.Short() {
			t.Skip("PN15 key generation takes tens of seconds")
		}
		if flag.Lookup("test.run").Value.String() == "" {
			t.Skip("PN15 rows run only when selected with -run (≈ 3.5 GB peak RSS)")
		}
		b := newBudgetParty(PN15)
		ct := b.encrypt()
		const runs = 2
		rlk := sync.OnceValue(func() *RelinearizationKey { return b.kg.GenRelinearizationKeyHybridAt(b.p.MaxLevel()) })

		t.Run("RotateHybridPN15", func(t *testing.T) {
			rot := b.kg.GenRotationKeyHybridAt(b.p.GaloisElement(1), b.p.MaxLevel())
			checkAllocs(t, 64, runs, func() { b.ev.RotateGalois(ct, rot) })
		})
		// The factored homomorphic DFT over the hoisted BSGS path
		// (StartLevel 10, two butterfly groups per direction).
		t.Run("CoeffsToSlotsPN15", func(t *testing.T) {
			dft := b.enc.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: 10, Levels: 2})
			ks := b.kg.GenEvaluationKeySet(b.sk, 10, dft.Rotations(), true, GadgetHybrid)
			ct10 := b.ev.DropLevel(ct, 10)
			checkAllocs(t, 4352, runs, func() { b.ev.CoeffsToSlots(ct10, dft, ks.Rot, ks.Conj) })
		})
		t.Run("MulRelinHybridPN15", func(t *testing.T) {
			checkAllocs(t, 96, runs, func() { b.ev.MulRelin(ct, ct, rlk()) })
		})
		// The BSGS Chebyshev schedule on a generic degree-7 polynomial at
		// its minimum level.
		t.Run("EvalPolyPN15", func(t *testing.T) {
			mono := make([]complex128, 8)
			for i := range mono {
				mono[i] = complex(1/float64(i+1), 0)
			}
			plan := b.p.NewEvalPolyPlan(mono, -1, 1, 0)
			ctIn := b.ev.DropLevel(ct, plan.Level())
			checkAllocs(t, 1248, runs, func() { b.ev.EvalPoly(ctIn, plan, rlk()) })
		})
		// The degree-15 sine-surrogate EvalMod at level 15, the bootstrap's
		// post-CoeffsToSlots stage.
		t.Run("EvalModPN15", func(t *testing.T) {
			const modRange = 8.0
			sinCoeffs := fftfp.SinTaylorCoeffs(15)
			mono := make([]complex128, len(sinCoeffs))
			pw := modRange / (2 * math.Pi) // default Scaling
			for k, c := range sinCoeffs {
				mono[k] = complex(c*pw, 0)
				pw *= 2 * math.Pi / modRange
			}
			plan := b.p.NewEvalPolyPlan(mono, -modRange, modRange, 15)
			ctIn := b.ev.DropLevel(ct, plan.Level())
			checkAllocs(t, 1856, runs, func() { b.ev.EvalPoly(ctIn, plan, rlk()) })
		})
	})
}

// TestLinearTransformBSGSBeatsNaive: on the 12-diagonal band the BSGS
// schedule is faster than one rotation per diagonal. Min of five
// interleaved runs each, so a noisy neighbour slows both sides alike.
func TestLinearTransformBSGSBeatsNaive(t *testing.T) {
	b := newBudgetParty(TestParams)
	band := newBSGSBand(b)
	band.bsgs()
	band.naive()
	timed := func(op func()) time.Duration {
		start := time.Now()
		op()
		return time.Since(start)
	}
	bsgs, naive := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		bsgs = min(bsgs, timed(band.bsgs))
		naive = min(naive, timed(band.naive))
	}
	t.Logf("min of 5: BSGS %v, naive %v (naive/BSGS %.2f)", bsgs, naive, float64(naive)/float64(bsgs))
	if bsgs >= naive {
		t.Fatalf("BSGS linear transform (%v) does not beat naive per-diagonal rotations (%v)", bsgs, naive)
	}
}
