package abcfhe

// BenchmarkOps times the client and server ops through the public roles,
// one sub-benchmark per preset × worker count × op:
//
//	go test -run=NONE -bench=Ops -benchmem .
//	go test -run=NONE -bench='Ops/PN15/.*/EncodeEncrypt$' -benchtime=3x .
//
// The allocation ceilings of these ops are TestAllocationBudgets in
// internal/ckks; the repo benchmark (benchmark/) is where wall-clock is
// tracked end to end. `go run ./cmd/abcbench` regenerates the paper's
// tables and figures.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/prng"
)

// opBenchmarks lists the ops timed per preset and worker count. Workers 0
// stands for GOMAXPROCS: the PN15 EncodeEncrypt pair is the software
// version of the paper's Fig. 5b lane sweep, and DecryptDecode runs at
// every preset at the paper's 2-limb return level.
var opBenchmarks = []struct {
	preset  Preset
	workers int
	ops     []string
}{
	{Test, 0, []string{"EncodeEncrypt", "EncodeEncryptBatch8", "DecryptDecode", "DecryptDecodeBatch8",
		"Mul", "Rotate", "RotateMany/hoisted", "RotateMany/sequential", "InnerSum8"}},
	{PN13, 0, []string{"DecryptDecode", "DecryptDecodeBatch8"}},
	{PN14, 0, []string{"DecryptDecode"}},
	{PN15, 1, []string{"EncodeEncrypt"}},
	{PN15, 0, []string{"EncodeEncrypt", "DecryptDecode"}},
	{PN16, 0, []string{"DecryptDecode"}},
}

// opFixture is one preset's three parties and a full-slot message, built
// by the first op that runs so a -bench filter matching none of a row's
// ops costs no key generation.
type opFixture struct {
	owner  *KeyOwner
	device *Encryptor
	server *Server
	msg    []complex128
	evk    *EvaluationKeys // built on first use by a key-switching op
}

func (f *opFixture) build(b *testing.B, preset Preset, workers int) {
	b.Helper()
	if f.owner != nil {
		return
	}
	f.owner, f.device, f.server = threeParties(b, preset, 7, 8, WithWorkers(workers))
	f.msg = benchMsg(f.device.Slots())
}

func (f *opFixture) close() {
	if f.owner != nil {
		f.owner.Close()
		f.device.Close()
		f.server.Close()
	}
}

func benchMsg(slots int) []complex128 {
	msg := make([]complex128, slots)
	src := prng.NewSource(prng.SeedFromUint64s(1, 2), 0)
	for i := range msg {
		msg[i] = complex(src.Float64()-0.5, src.Float64()-0.5)
	}
	return msg
}

// encrypt returns a fresh max-level encryption of the fixture's message.
func (f *opFixture) encrypt(b *testing.B) *Ciphertext {
	b.Helper()
	ct, err := f.device.EncodeEncrypt(f.msg)
	if err != nil {
		b.Fatal(err)
	}
	return ct
}

// reply encrypts the message and drops it to the paper's 2-limb return
// level.
func (f *opFixture) reply(b *testing.B) *Ciphertext {
	b.Helper()
	low, err := f.server.DropLevel(f.encrypt(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	return low
}

// keys imports depth-4 evaluation keys with the rotation ladder of an
// 8-slot inner sum.
func (f *opFixture) keys(b *testing.B) *EvaluationKeys {
	b.Helper()
	if f.evk != nil {
		return f.evk
	}
	blob, err := f.owner.ExportEvaluationKeys(EvalKeyConfig{MaxLevel: 4, Rotations: InnerSumRotations(8)})
	if err != nil {
		b.Fatal(err)
	}
	if f.evk, err = f.server.ImportEvaluationKeys(blob); err != nil {
		b.Fatal(err)
	}
	return f.evk
}

// opLoops holds each op's timed loop. Set-up before b.ResetTimer is not
// charged.
var opLoops = map[string]func(b *testing.B, f *opFixture){
	"EncodeEncrypt": func(b *testing.B, f *opFixture) {
		for i := 0; i < b.N; i++ {
			f.encrypt(b)
		}
	},
	// Batch pipeline: message-level fan-out on top of limb-level
	// parallelism keeps the lanes busy between ops.
	"EncodeEncryptBatch8": func(b *testing.B, f *opFixture) {
		msgs := make([][]complex128, 8)
		for i := range msgs {
			msgs[i] = f.msg
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.device.EncodeEncryptBatch(msgs); err != nil {
				b.Fatal(err)
			}
		}
	},
	"DecryptDecode": func(b *testing.B, f *opFixture) {
		low := f.reply(b)
		out := make([]complex128, f.owner.Slots())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.owner.DecryptDecodeInto(low, out); err != nil {
				b.Fatal(err)
			}
		}
	},
	"DecryptDecodeBatch8": func(b *testing.B, f *opFixture) {
		cts := make([]*Ciphertext, 8)
		for i := range cts {
			cts[i] = f.reply(b)
		}
		out := make([][]complex128, len(cts))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.owner.DecryptDecodeBatchInto(cts, out); err != nil {
				b.Fatal(err)
			}
		}
	},
	"Mul": func(b *testing.B, f *opFixture) {
		evk, ct := f.keys(b), f.encrypt(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.server.Mul(ct, ct, evk); err != nil {
				b.Fatal(err)
			}
		}
	},
	"Rotate": func(b *testing.B, f *opFixture) {
		evk, ct := f.keys(b), f.encrypt(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.server.Rotate(ct, 1, evk); err != nil {
				b.Fatal(err)
			}
		}
	},
	// RotateMany shares one digit decomposition (and its NTTs) across all
	// steps; the sequential loop pays it per step.
	"RotateMany/hoisted": func(b *testing.B, f *opFixture) {
		evk, ct := f.keys(b), f.encrypt(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.server.RotateMany(ct, []int{1, 2, 4}, evk); err != nil {
				b.Fatal(err)
			}
		}
	},
	"RotateMany/sequential": func(b *testing.B, f *opFixture) {
		evk, ct := f.keys(b), f.encrypt(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range []int{1, 2, 4} {
				if _, err := f.server.Rotate(ct, k, evk); err != nil {
					b.Fatal(err)
				}
			}
		}
	},
	"InnerSum8": func(b *testing.B, f *opFixture) {
		evk, ct := f.keys(b), f.encrypt(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.server.InnerSum(ct, 8, evk); err != nil {
				b.Fatal(err)
			}
		}
	},
}

func BenchmarkOps(b *testing.B) {
	for _, row := range opBenchmarks {
		workers := row.workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		b.Run(fmt.Sprintf("%s/workers=%d", row.preset, workers), func(b *testing.B) {
			f := &opFixture{}
			defer f.close()
			for _, op := range row.ops {
				b.Run(op, func(b *testing.B) {
					f.build(b, row.preset, workers)
					b.ReportAllocs()
					b.ResetTimer()
					opLoops[op](b, f)
				})
			}
		})
	}
}
