package abcfhe

// One testing.B benchmark per table/figure of the paper's evaluation
// (regenerating the experiment end to end), plus micro-benchmarks of the
// client primitives the accelerator targets. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks use reduced problem sizes (Options.Fast) so a
// full -bench=. sweep completes in minutes; `go run ./cmd/abcbench` runs
// the paper-scale versions.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/prng"
	"repro/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id, bench.Options{Fast: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 1: client/server execution-time breakdown (ResNet20-FHE).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// Fig. 2: client-side operation analysis (27.0 vs 2.9 MOPs).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// Fig. 3c: precision vs floating-point mantissa width (FP55 selection).
func BenchmarkFig3c(b *testing.B) { benchExperiment(b, "fig3c") }

// Fig. 4: twiddle scheduling and multiplier design-space exploration.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// Table I: modular multiplier area/pipeline comparison.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Table II: chip area/power breakdown (+7 nm scaling).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Fig. 5a: latency and speed-up vs CPU and prior accelerators.
func BenchmarkFig5a(b *testing.B) { benchExperiment(b, "fig5a") }

// Fig. 5b: PNL lane sweep against the LPDDR5 ceiling.
func BenchmarkFig5b(b *testing.B) { benchExperiment(b, "fig5b") }

// Fig. 6a: RFE area ablation (TF scheduling, MontMul, reconfigurability).
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }

// Fig. 6b: on-chip generation ablation across polynomial degrees.
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }

// §IV-B: on-chip memory accounting (>99.9% reduction claim).
func BenchmarkMemClaim(b *testing.B) { benchExperiment(b, "memclaim") }

// §IV-A: NTT-friendly prime census (443-prime claim).
func BenchmarkPrimeCensus(b *testing.B) { benchExperiment(b, "primes") }

// ---------------------------------------------------------------------
// Micro-benchmarks: the client primitives themselves.
// ---------------------------------------------------------------------

// benchParties wires the three roles (see threeParties) for the client
// micro-benchmarks and builds one full-slot message.
func benchParties(b *testing.B, preset Preset, opts ...Option) (*KeyOwner, *Encryptor, *Server, []complex128) {
	b.Helper()
	owner, device, server := threeParties(b, preset, 7, 8, opts...)
	return owner, device, server, benchMsg(device.Slots())
}

func benchMsg(slots int) []complex128 {
	msg := make([]complex128, slots)
	src := prng.NewSource(prng.SeedFromUint64s(1, 2), 0)
	for i := range msg {
		msg[i] = complex(src.Float64()-0.5, src.Float64()-0.5)
	}
	return msg
}

// benchReply encrypts msg and drops it to the paper's 2-limb return level.
func benchReply(b *testing.B, device *Encryptor, server *Server, msg []complex128) *Ciphertext {
	b.Helper()
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		b.Fatal(err)
	}
	low, err := server.DropLevel(ct, 2)
	if err != nil {
		b.Fatal(err)
	}
	return low
}

func BenchmarkClientEncodeEncrypt(b *testing.B) {
	_, device, _, msg := benchParties(b, Test)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := device.EncodeEncrypt(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientDecryptDecode(b *testing.B) {
	owner, device, server, msg := benchParties(b, Test)
	low := benchReply(b, device, server, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := owner.DecryptDecode(low); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-preset decode benchmarks at the paper's 2-limb return level. Run
// with -benchmem: the allocs/op column is the regression canary for the
// allocation-free Combine-CRT path (the Test preset sat at ~9.7k allocs/op
// on the old big.Int combine; the fast path runs at ~20).
func BenchmarkDecryptDecode(b *testing.B) {
	for _, preset := range []Preset{Test, PN13, PN14, PN15, PN16} {
		b.Run(string(preset), func(b *testing.B) {
			owner, device, server, msg := benchParties(b, preset)
			low := benchReply(b, device, server, msg)
			out := make([]complex128, owner.Slots())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := owner.DecryptDecodeInto(low, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Batch decode: message-level fan-out over reused slot buffers.
func BenchmarkDecryptDecodeBatch(b *testing.B) {
	for _, preset := range []Preset{Test, PN13} {
		b.Run(fmt.Sprintf("%s/8msgs", preset), func(b *testing.B) {
			owner, device, server, msg := benchParties(b, preset)
			cts := make([]*Ciphertext, 8)
			out := make([][]complex128, len(cts))
			for i := range cts {
				cts[i] = benchReply(b, device, server, msg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := owner.DecryptDecodeBatchInto(cts, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Extension: decode lane sweep with allocation accounting.
func BenchmarkDecodeExperiment(b *testing.B) { benchExperiment(b, "decode") }

func BenchmarkAcceleratorModel(b *testing.B) {
	cfg := sim.PaperConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.EncodeEncrypt(1)
		cfg.DecodeDecrypt(1)
	}
}

// Lane scaling: PN15 EncodeEncrypt with the serial path vs the full
// GOMAXPROCS worker pool — the software version of the paper's Fig. 5b
// lane sweep. On a host with ≥4 cores the pooled run is expected to be
// ≥2x faster; on a single-core host both sub-benchmarks coincide.
func BenchmarkPN15EncodeEncryptLanes(b *testing.B) {
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			owner, device, server, msg := benchParties(b, PN15, WithWorkers(w))
			defer owner.Close()
			defer device.Close()
			defer server.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := device.EncodeEncrypt(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Batch pipeline: amortizes per-message overheads on top of limb-level
// parallelism (message-level fan-out keeps lanes busy between ops).
func BenchmarkClientEncodeEncryptBatch8(b *testing.B) {
	_, device, _, msg := benchParties(b, Test)
	msgs := make([][]complex128, 8)
	for i := range msgs {
		msgs[i] = msg
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := device.EncodeEncryptBatch(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvalServer builds the key-gated server surface once for the
// evaluation benchmarks: Test-preset parties, depth-4 keys with the
// rotation ladder for an 8-slot inner sum.
func benchEvalServer(b *testing.B) (*Server, *EvaluationKeys, *Ciphertext) {
	b.Helper()
	owner, err := NewKeyOwner(Test, 7, 8)
	if err != nil {
		b.Fatal(err)
	}
	pkBytes, _ := owner.ExportPublicKey()
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		MaxLevel:  4,
		Rotations: InnerSumRotations(8),
	})
	if err != nil {
		b.Fatal(err)
	}
	device, err := NewEncryptor(pkBytes, 9, 10)
	if err != nil {
		b.Fatal(err)
	}
	server, evk, err := NewServerFromEvaluationKeys(evkBytes)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := device.EncodeEncrypt(benchMsg(device.Slots()))
	if err != nil {
		b.Fatal(err)
	}
	return server, evk, ct
}

// Key-switch hot paths with allocation accounting — the allocs/op column
// is the regression canary for the pool-backed digit decomposition (the
// hard budget is TestEvalAllocationBudget; these report real numbers per
// worker configuration).
func BenchmarkServerMulRelin(b *testing.B) {
	server, evk, ct := benchEvalServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Mul(ct, ct, evk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerRotate(b *testing.B) {
	server, evk, ct := benchEvalServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Rotate(ct, 1, evk); err != nil {
			b.Fatal(err)
		}
	}
}

// Hoisted vs sequential multi-rotation: RotateMany shares one digit
// decomposition (and its NTTs) across all steps; the sequential loop pays
// it per step.
func BenchmarkServerRotateMany(b *testing.B) {
	steps := []int{1, 2, 4}
	b.Run("hoisted", func(b *testing.B) {
		server, evk, ct := benchEvalServer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := server.RotateMany(ct, steps, evk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		server, evk, ct := benchEvalServer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range steps {
				if _, err := server.Rotate(ct, k, evk); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkServerInnerSum8(b *testing.B) {
	server, evk, ct := benchEvalServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.InnerSum(ct, 8, evk); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: seeded-ciphertext bandwidth ablation.
func BenchmarkSeededAblation(b *testing.B) { benchExperiment(b, "seeded") }

// Extension: architecture design-space sweep.
func BenchmarkArchSweep(b *testing.B) { benchExperiment(b, "archsweep") }
