package main

import (
	"repro/internal/ckks"
	"repro/internal/fftfp"
	"repro/internal/ntt"
	"repro/internal/primes"
	"repro/internal/prng"
	"repro/internal/rns"
)

// Kernel probes: min-of-k calls into a layer's exported functions at the
// workload's shape (ring degree and limb count of its preset), on values
// the probe generates itself. They say how fast a layer is on this
// machine today; the spans say how much of an iteration it was.

// probeSeed feeds the samplers that fill probe operands; the values are
// irrelevant to timing, only their being valid residues matters.
var probeSeed = prng.SeedFromUint64s(0xA11CE, 0xB0B)

// kernelProbes times internal/ring, internal/ntt, internal/rns and the
// lane engine at p's full depth, plus the in-run reference kernel.
func kernelProbes(p *ckks.Parameters, out metricSet) {
	r := p.Ring()
	n, k := r.N, r.K()
	src := prng.NewSource(probeSeed, 0)
	a, b, acc := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, b)

	// One limb through the backend-bound kernel, then all limbs through
	// the lane engine: their ratio is what the engine buys on this box.
	row := append([]uint64(nil), a.Coeffs[0]...)
	fwd := minOf(9, func() { r.ForwardLimb(0, row) })
	inv := minOf(9, func() { r.InverseLimb(0, row) })
	out.set("ntt.forward_us", float64(fwd.Nanoseconds())/1e3)
	out.set("ntt.inverse_us", float64(inv.Nanoseconds())/1e3)
	butterflies := float64(n/2) * float64(r.LogN)
	out.set("ntt.gbutterflies_per_s", butterflies/fwd.Seconds()/1e9)

	whole := minOf(5, func() { a.IsNTT = false; r.NTT(a) })
	out.set("ring.ntt_ms", ms(whole))
	out.set("ring.intt_ms", ms(minOf(5, func() { a.IsNTT = true; r.INTT(a) })))
	out.set("lanes.ntt_speedup", float64(k)*fwd.Seconds()/whole.Seconds())

	a.IsNTT, b.IsNTT, acc.IsNTT = true, true, true
	out.set("ring.mulcoeffs_ms", ms(minOf(5, func() { r.MulCoeffs(a, b, acc) })))
	perm := r.GaloisPermNTT(p.GaloisElement(1))
	out.set("ring.mulpermadd_ms", ms(minOf(5, func() { r.MulPermAdd(a, perm, b, acc) })))

	// CRT combine as decode runs it: two limbs (the level ciphertexts
	// return from the server at), every coefficient, one caller.
	low := r.Basis.Sub(min(2, k))
	scratch := make([]uint64, low.CombineScratchLen())
	limbs := make([]uint64, low.K())
	sink := 0.0
	out.set("rns.combine_ms", ms(minOf(5, func() {
		for j := 0; j < n; j++ {
			for i := range limbs {
				limbs[i] = a.Coeffs[i][j]
			}
			sink += low.CombineCenteredFloatScratch(limbs, p.Scale(), scratch)
		}
	})))
	_ = sink

	if p.Alpha() > 0 {
		// The hybrid key switch's data movement: extend decomposition group
		// 0 to the raised basis QP (ModUp), and transform a raised poly.
		qp := p.RingQPAt(k)
		qPrimes := r.Basis.Primes()
		ext := rns.MustExtender(qPrimes[:p.Alpha()], qp.Basis.Primes())
		raised := qp.NewPoly()
		group := a.Coeffs[:p.Alpha()]
		out.set("rns.extend_ms", ms(minOf(5, func() { ext.ExtendRange(group, raised.Coeffs, 0, n) })))
		out.set("ring.modup_ms", ms(minOf(5, func() { qp.ModUpInto(ext, group, raised) })))
		out.set("ring.ntt_qp_ms", ms(minOf(5, func() { raised.IsNTT = false; qp.NTT(raised) })))
	}

	out.set("ref.ntt_n15_us", referenceKernelUS())
}

// referenceKernelUS is the in-run reference: the portable ntt.Table
// forward transform of one 36-bit limb at N = 2^15. Every workload
// reports it so a reader can tell machine drift from a code change; it is
// never used to rescale an end-to-end metric.
func referenceKernelUS() float64 {
	const logN = 15
	q := primes.GenerateNTTPrimes(1, 36, logN)[0]
	t := ntt.MustTable(1<<logN, q)
	row := make([]uint64, 1<<logN)
	prng.NewSource(probeSeed, 1).UniformPoly(row, q)
	return float64(minOf(9, func() { t.Forward(row) }).Nanoseconds()) / 1e3
}

// transformProbes times internal/fftfp's special FFT and internal/prng's
// three samplers at p's degree (one limb's worth of samples each).
func transformProbes(p *ckks.Parameters, out metricSet) {
	emb, ctx := p.Embedder(), p.FFTCtx()
	vals := make([]fftfp.Complex, emb.Slots)
	for i := range vals {
		vals[i] = fftfp.Complex{Re: float64(i%7) / 7, Im: float64(i%5) / 5}
	}
	out.set("fftfp.ifft_ms", ms(minOf(5, func() { emb.IFFT(vals, ctx) })))
	out.set("fftfp.fft_ms", ms(minOf(5, func() { emb.FFT(vals, ctx) })))

	q := p.Ring().Basis.Primes()[0]
	row := make([]uint64, p.N())
	src := prng.NewSource(probeSeed, 2)
	out.set("prng.uniform_poly_ms", ms(minOf(5, func() { src.UniformPoly(row, q) })))
	out.set("prng.gaussian_poly_ms", ms(minOf(5, func() { src.GaussianPoly(row, q) })))
	out.set("prng.ternary_poly_ms", ms(minOf(5, func() { src.TernaryPoly(row, q) })))
}
