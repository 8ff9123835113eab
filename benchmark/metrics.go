package main

// The benchmark's vocabulary: workload names, iteration constants,
// precision floors, and every metric with its unit, direction and bound.
// BENCHMARK.json repeats the names, units and directions for the driver;
// TestBenchmarkJSONMatchesTables keeps the two from drifting.

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// boundKind says how -compare reads a metric's bound.
type boundKind int

const (
	boundRelative boundKind = iota // worse by more than bound × baseline
	boundAbsolute                  // worse by more than bound, in the metric's unit
)

// metricDef declares an end-to-end metric. "Worse" follows higherBetter.
type metricDef struct {
	name         string
	unit         string
	higherBetter bool
	kind         boundKind
	bound        float64
}

// endToEnd lists the eight end-to-end metrics every workload reports.
// wire_mb_per_op and setup_wire_mb are byte counts and must repeat
// exactly (relative bound 0); precision may move one bit; fail_ratio may
// not move at all. fail_ratio is always 0 on an accepted run, so the
// driver-facing BENCHMARK.json carries it as failed/attempted instead of
// as a metric (its metrics must never read 0).
var endToEnd = []metricDef{
	{"setup_s", "s", false, boundRelative, 0.20},
	{"op_ms_p50", "ms", false, boundRelative, 0.15},
	{"ops_per_s", "1/s", true, boundRelative, 0.15},
	{"peak_rss_mb", "MB", false, boundRelative, 0.10},
	{"wire_mb_per_op", "MB", false, boundRelative, 0},
	{"setup_wire_mb", "MB", false, boundRelative, 0},
	{"precision_bits_min", "bits", true, boundAbsolute, 1},
	{"fail_ratio", "ratio", false, boundAbsolute, 0},
}

// layerDef declares a per-layer metric: no bound, only a direction so a
// reader knows which way is good.
type layerDef struct {
	name         string
	unit         string
	higherBetter bool
}

// perLayer lists every per-layer metric, prefix = module. A workload
// reports the ones its path exercises; in the driver's --trace 1 line the
// rest read 0 (not measured on this workload). README.md has the glossary
// and which workload feeds which name.
var perLayer = []layerDef{
	// roles (package root), spans of the traced pass
	{"encryptor.encode_encrypt_ms", "ms", false},
	{"encryptor.serialize_ms", "ms", false},
	{"server.deserialize_ms", "ms", false},
	{"server.droplevel_ms", "ms", false},
	{"server.serialize_ms", "ms", false},
	{"keyowner.deserialize_ms", "ms", false},
	{"keyowner.decrypt_decode_ms", "ms", false},
	{"client.roundtrip_ms_p90", "ms", false},
	{"keyowner.encrypt_compressed_ms", "ms", false},
	{"server.expand_ms", "ms", false},
	{"client.compressed_wire_ratio", "ratio", false},
	{"server.mul_ms", "ms", false},
	{"server.rescale_ms", "ms", false},
	{"server.rotate_ms", "ms", false},
	{"server.conjugate_ms", "ms", false},
	{"server.innersum_ms", "ms", false},
	{"server.add_ms", "ms", false},
	{"server.mulconst_ms", "ms", false},
	{"server.c2s_ms", "ms", false},
	{"server.evalmod_ms", "ms", false},
	{"server.s2c_ms", "ms", false},
	{"keyowner.keygen_s", "s", false},
	{"keyowner.export_evk_s", "s", false},
	{"server.import_evk_s", "s", false},
	{"server.plan_build_s", "s", false},
	// internal/serve
	{"serve.mul_ms_p50", "ms", false},
	{"serve.rotate_ms_p50", "ms", false},
	{"serve.innersum_ms_p50", "ms", false},
	{"serve.conjugate_ms_p50", "ms", false},
	{"serve.request_ms_p90", "ms", false},
	{"serve.txn_ms_p90", "ms", false},
	{"serve.register_s", "s", false},
	{"serve.cache_hit_ratio", "ratio", true},
	{"serve.cache_reloads", "count", false},
	{"serve.cache_evictions", "count", false},
	{"serve.pressure_rejects", "count", false},
	{"serve.throttle_retries", "count", false},
	{"serve.batch_size_mean", "count", true},
	{"serve.server_latency_ms_mean", "ms", false},
	{"serve.http_overhead_ms", "ms", false},
	{"serve.inproc_ratio", "ratio", false},
	{"serve.frames_encode_ms", "ms", false},
	{"serve.frames_decode_ms", "ms", false},
	// internal/ckks probes
	{"ckks.encode_ms", "ms", false},
	{"ckks.encrypt_ms", "ms", false},
	{"ckks.decrypt_ms", "ms", false},
	{"ckks.decode_ms", "ms", false},
	{"ckks.marshal_ct_ms", "ms", false},
	{"ckks.unmarshal_ct_ms", "ms", false},
	{"ckks.seeded_encrypt_ms", "ms", false},
	{"ckks.expand_ms", "ms", false},
	{"ckks.mulrelin_ms", "ms", false},
	{"ckks.rotate_galois_ms", "ms", false},
	{"ckks.rotate_hoisted8_ms", "ms", false},
	{"ckks.rescale_ms", "ms", false},
	{"ckks.mulplain_ms", "ms", false},
	{"ckks.gen_evk_s", "s", false},
	{"ckks.marshal_evk_s", "s", false},
	{"ckks.unmarshal_evk_s", "s", false},
	{"computed.key_mb_per_switch", "MB", false},
	{"ckks.lintrans_ms", "ms", false},
	{"ckks.evalpoly_ms", "ms", false},
	// internal/ring, ntt, rns, lanes probes
	{"ntt.forward_us", "us", false},
	{"ntt.inverse_us", "us", false},
	{"ring.ntt_ms", "ms", false},
	{"ring.intt_ms", "ms", false},
	{"lanes.ntt_speedup", "ratio", true},
	{"ring.mulcoeffs_ms", "ms", false},
	{"ring.mulpermadd_ms", "ms", false},
	{"ring.ntt_qp_ms", "ms", false},
	{"ring.modup_ms", "ms", false},
	{"rns.extend_ms", "ms", false},
	{"rns.combine_ms", "ms", false},
	{"ntt.gbutterflies_per_s", "G/s", true},
	{"ref.ntt_n15_us", "us", false},
	// internal/fftfp, internal/prng probes
	{"fftfp.ifft_ms", "ms", false},
	{"fftfp.fft_ms", "ms", false},
	{"prng.uniform_poly_ms", "ms", false},
	{"prng.gaussian_poly_ms", "ms", false},
	{"prng.ternary_poly_ms", "ms", false},
	// paper model (internal/core, internal/sched), deterministic
	{"model.enc_ms", "ms", false},
	{"model.dec_ms", "ms", false},
	{"sched.enc_mops", "count", false},
	{"sched.dec_mops", "count", false},
	{"model.enc_speedup", "ratio", false},
	{"model.dec_speedup", "ratio", false},
	{"client.enc_mops_per_s", "1/s", true},
	// Go runtime, untraced pass
	{"go.alloc_mb_per_op", "MB", false},
	{"go.allocs_per_op", "count", false},
	{"go.gc_cycles_per_op", "count", false},
	{"go.gc_pause_ms_per_op", "ms", false},
	{"go.heap_inuse_mb_end", "MB", false},
	// harness
	{"trace.overhead_ratio", "ratio", false},
	{"trace.self_ratio", "ratio", false},
}

// metricSet collects a run's numbers by name; the unit comes from the
// tables above so a typo in a name fails loudly instead of inventing a
// metric.
type metricSet map[string]metric

var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

func (s metricSet) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	s[name] = metric{Value: v, Unit: unit}
}
