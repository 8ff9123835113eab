package rns

import (
	"math/big"
	"testing"

	"repro/internal/primes"
	"repro/internal/prng"
)

// testPrimes returns distinct 36-bit NTT primes for a degree-2^10 ring —
// the same family the CKKS chains draw from.
func testPrimes(n int) []uint64 { return primes.GenerateNTTPrimes(n, 36, 10) }

// extendOracle computes the exact centered value of the source residues
// via big.Int and returns it (in (−G/2, G/2]).
func extendOracle(src []uint64, primes []uint64) *big.Int {
	b := MustBasis(primes)
	return b.CombineCentered(src)
}

// TestExtenderMatchesOracle: the fast extension equals the centered lift
// plus u·G for a single small integer u shared by every target — the
// defining property of an approximate base conversion. u is recovered
// from the first target and checked against all others and against the
// |u| ≤ α bound.
func TestExtenderMatchesOracle(t *testing.T) {
	all := testPrimes(5)
	srcPrimes := all[:2]
	dstPrimes := []uint64{all[2], all[3], all[0], all[4]} // includes a source prime

	e := MustExtender(srcPrimes, dstPrimes)
	g := new(big.Int).SetInt64(1)
	for _, q := range srcPrimes {
		g.Mul(g, new(big.Int).SetUint64(q))
	}

	const n = 512
	src := make([][]uint64, len(srcPrimes))
	for i, q := range srcPrimes {
		src[i] = make([]uint64, n)
		s := prng.NewSource(prng.SeedFromUint64s(9, uint64(i)), 7)
		s.UniformPoly(src[i], q)
	}
	dst := make([][]uint64, len(dstPrimes))
	for t := range dst {
		dst[t] = make([]uint64, n)
	}
	e.ExtendRange(src, dst, 0, n)

	limb := make([]uint64, len(srcPrimes))
	tmp := new(big.Int)
	for j := 0; j < n; j++ {
		for i := range srcPrimes {
			limb[i] = src[i][j]
		}
		x := extendOracle(limb, srcPrimes)
		// Recover the extension offset u per target: u ≡ (out − x)/G mod
		// m_t. A target that is itself a source prime divides G (no
		// inverse); there the residue must pass through exactly instead.
		var u *big.Int
		for ti, m := range dstPrimes {
			mb := new(big.Int).SetUint64(m)
			diff := new(big.Int).SetUint64(dst[ti][j])
			diff.Sub(diff, x)
			diff.Mod(diff, mb)
			gInv := new(big.Int).ModInverse(tmp.Mod(g, mb), mb)
			if gInv == nil {
				if diff.Sign() != 0 {
					t.Fatalf("coeff %d target %d: source-prime target not exact", j, ti)
				}
				continue
			}
			ui := diff.Mul(diff, gInv)
			ui.Mod(ui, mb)
			// Normalize to a small signed integer.
			half := new(big.Int).Rsh(mb, 1)
			if ui.Cmp(half) > 0 {
				ui.Sub(ui, mb)
			}
			if ui.CmpAbs(big.NewInt(int64(len(srcPrimes)+1))) > 0 {
				t.Fatalf("coeff %d target %d: offset %v exceeds α+1", j, ti, ui)
			}
			if u == nil {
				u = new(big.Int).Set(ui)
			} else if u.Cmp(ui) != 0 {
				t.Fatalf("coeff %d target %d: offset %v inconsistent with %v", j, ti, ui, u)
			}
		}
	}
}

// TestExtenderExactOnSourceLimbs: when a source prime is also a target,
// its residue passes through exactly — the property that keeps hybrid
// decomposition signal-exact on in-group limbs regardless of the float
// rounding in v.
func TestExtenderExactOnSourceLimbs(t *testing.T) {
	all := testPrimes(3)
	srcPrimes := all[:2]
	dstPrimes := all[:3]
	e := MustExtender(srcPrimes, dstPrimes)

	const n = 256
	src := make([][]uint64, len(srcPrimes))
	for i, q := range srcPrimes {
		src[i] = make([]uint64, n)
		s := prng.NewSource(prng.SeedFromUint64s(3, uint64(i)), 11)
		s.UniformPoly(src[i], q)
	}
	// Boundary values too.
	src[0][0], src[1][0] = 0, 0
	src[0][1], src[1][1] = srcPrimes[0]-1, srcPrimes[1]-1
	dst := make([][]uint64, len(dstPrimes))
	for ti := range dst {
		dst[ti] = make([]uint64, n)
	}
	e.ExtendRange(src, dst, 0, n)
	for j := 0; j < n; j++ {
		if dst[0][j] != src[0][j] || dst[1][j] != src[1][j] {
			t.Fatalf("coeff %d: source residues (%d, %d) not preserved (got %d, %d)",
				j, src[0][j], src[1][j], dst[0][j], dst[1][j])
		}
	}
}

// TestExtenderChunkInvariance: any partition of the range computes the
// same bytes (the lane-dispatch contract).
func TestExtenderChunkInvariance(t *testing.T) {
	all := testPrimes(4)
	srcPrimes := all[:2]
	dstPrimes := all[2:]
	e := MustExtender(srcPrimes, dstPrimes)
	const n = 300
	src := make([][]uint64, 2)
	for i, q := range srcPrimes {
		src[i] = make([]uint64, n)
		s := prng.NewSource(prng.SeedFromUint64s(5, uint64(i)), 13)
		s.UniformPoly(src[i], q)
	}
	whole := [][]uint64{make([]uint64, n), make([]uint64, n)}
	parts := [][]uint64{make([]uint64, n), make([]uint64, n)}
	e.ExtendRange(src, whole, 0, n)
	for lo := 0; lo < n; lo += 37 {
		hi := lo + 37
		if hi > n {
			hi = n
		}
		e.ExtendRange(src, parts, lo, hi)
	}
	for ti := range whole {
		for j := range whole[ti] {
			if whole[ti][j] != parts[ti][j] {
				t.Fatalf("target %d coeff %d differs across chunkings", ti, j)
			}
		}
	}
}

// TestReduceCombineMatchesExtend: the split kernels the fused key-switch
// pipeline uses (ReduceRange for the source half, CombineLimb per target)
// reproduce ExtendRange byte for byte — including the float64 overflow
// estimate, whose accumulation order both paths share.
func TestReduceCombineMatchesExtend(t *testing.T) {
	all := testPrimes(5)
	srcPrimes := all[:2]
	dstPrimes := []uint64{all[2], all[3], all[0], all[4]} // includes a source prime
	e := MustExtender(srcPrimes, dstPrimes)
	const n = 300
	src := make([][]uint64, len(srcPrimes))
	for i, q := range srcPrimes {
		src[i] = make([]uint64, n)
		s := prng.NewSource(prng.SeedFromUint64s(6, uint64(i)), 17)
		s.UniformPoly(src[i], q)
	}
	want := make([][]uint64, len(dstPrimes))
	got := make([][]uint64, len(dstPrimes))
	for t := range want {
		want[t] = make([]uint64, n)
		got[t] = make([]uint64, n)
	}
	e.ExtendRange(src, want, 0, n)

	y := [][]uint64{make([]uint64, n), make([]uint64, n)}
	v := make([]uint64, n)
	// Chunked reduce + per-limb combine over sub-ranges: both partitions
	// are execution details and must not show in the bytes.
	for lo := 0; lo < n; lo += 41 {
		hi := lo + 41
		if hi > n {
			hi = n
		}
		e.ReduceRange(src, y, v, lo, hi)
	}
	for ti := range got {
		for lo := 0; lo < n; lo += 53 {
			hi := lo + 53
			if hi > n {
				hi = n
			}
			e.CombineLimb(ti, y, v, got[ti], lo, hi)
		}
	}
	for ti := range want {
		for j := range want[ti] {
			if want[ti][j] != got[ti][j] {
				t.Fatalf("target %d coeff %d: split %d vs fused-path source %d",
					ti, j, want[ti][j], got[ti][j])
			}
		}
	}
}

func TestExtenderRejects(t *testing.T) {
	if _, err := NewExtender(nil, []uint64{3}); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := NewExtender([]uint64{3}, nil); err == nil {
		t.Error("empty target accepted")
	}
	long := testPrimes(extendMaxSource + 1)
	if _, err := NewExtender(long, []uint64{3}); err == nil {
		t.Error("oversized source basis accepted")
	}
}

// TestCombineLimbLazyBlocks drives the multiply-accumulate-then-reduce
// CombineLimb where the 36-bit presets cannot: at 61-bit primes a block of
// mod.LazyTerms products comes within a few bits of the reduction's
// q·2^64 domain, α ∈ {8, 16} flush in blocks shorter than α, and α = 1 is
// the degenerate sum. Every target — foreign
// and own — must equal ExtendRange byte for byte and sit u·G from the
// big-int centered lift for one small u; coefficient 0 pins every source
// residue at g_i − 1 and coefficient 1 every y_i at g_i − 1, the largest
// sum the accumulator can see.
func TestCombineLimbLazyBlocks(t *testing.T) {
	const n, seed = 64, 0xC0B1
	t.Logf("seed %#x", seed)
	all := primes.GenerateNTTPrimes(19, 61, 10)
	for _, alpha := range []int{1, 8, 16} {
		srcPrimes := all[:alpha]
		dstPrimes := []uint64{all[16], all[0], all[17], all[alpha-1], all[18]}
		e := MustExtender(srcPrimes, dstPrimes)
		g := big.NewInt(1)
		src := make([][]uint64, alpha)
		for i, q := range srcPrimes {
			g.Mul(g, new(big.Int).SetUint64(q))
			src[i] = make([]uint64, n)
			prng.NewSource(prng.SeedFromUint64s(seed, uint64(alpha)), uint64(i)).UniformPoly(src[i], q)
			src[i][0] = q - 1
			// y_i = (x_i + ⌊G/2⌋)·invHat_i = g_i − 1  ⇔  x_i = −hat_i − ⌊G/2⌋.
			m := e.src[i]
			src[i][1] = m.Sub(m.Neg(m.Inv(e.invHat[i])), e.halfSrc[i])
		}
		want := make([][]uint64, len(dstPrimes))
		got := make([][]uint64, len(dstPrimes))
		for ti := range want {
			want[ti] = make([]uint64, n)
			got[ti] = make([]uint64, n)
		}
		e.ExtendRange(src, want, 0, n)
		y := make([][]uint64, alpha)
		for i := range y {
			y[i] = make([]uint64, n)
		}
		v := make([]uint64, n)
		e.ReduceRange(src, y, v, 0, n)
		for i, q := range srcPrimes {
			if y[i][1] != q-1 {
				t.Fatalf("α=%d limb %d: pinned y = %d, want g−1 = %d", alpha, i, y[i][1], q-1)
			}
		}
		for ti := range got {
			e.CombineLimb(ti, y, v, got[ti], 0, n/2)
			e.CombineLimb(ti, y, v, got[ti], n/2, n)
		}

		limb := make([]uint64, alpha)
		for j := 0; j < n; j++ {
			for i := range limb {
				limb[i] = src[i][j]
			}
			x := extendOracle(limb, srcPrimes)
			var u *big.Int
			for ti, m := range dstPrimes {
				if got[ti][j] != want[ti][j] {
					t.Fatalf("α=%d target %d coeff %d: CombineLimb %d, ExtendRange %d", alpha, ti, j, got[ti][j], want[ti][j])
				}
				mb := new(big.Int).SetUint64(m)
				diff := new(big.Int).SetUint64(got[ti][j])
				diff.Mod(diff.Sub(diff, x), mb)
				gInv := new(big.Int).ModInverse(new(big.Int).Mod(g, mb), mb)
				if gInv == nil { // own limb: the residue passes through
					if diff.Sign() != 0 {
						t.Fatalf("α=%d target %d coeff %d: source limb not exact", alpha, ti, j)
					}
					continue
				}
				ui := diff.Mod(diff.Mul(diff, gInv), mb)
				if ui.Cmp(new(big.Int).Rsh(mb, 1)) > 0 {
					ui.Sub(ui, mb)
				}
				if ui.CmpAbs(big.NewInt(int64(alpha+1))) > 0 {
					t.Fatalf("α=%d target %d coeff %d: offset %v exceeds α+1", alpha, ti, j, ui)
				}
				if u == nil {
					u = new(big.Int).Set(ui)
				} else if u.Cmp(ui) != 0 {
					t.Fatalf("α=%d target %d coeff %d: offset %v inconsistent with %v", alpha, ti, j, ui, u)
				}
			}
		}
	}
}

// BenchmarkCombineLimb: one target row of the key switch's basis
// conversion at the PN15 shape — N = 2^15, α = 4 source limbs.
func BenchmarkCombineLimb(b *testing.B) {
	const n, alpha = 1 << 15, 4
	all := primes.GenerateNTTPrimes(alpha+1, 36, 15)
	e := MustExtender(all[:alpha], all[alpha:])
	src := make([][]uint64, alpha)
	y := make([][]uint64, alpha)
	for i, q := range all[:alpha] {
		src[i], y[i] = make([]uint64, n), make([]uint64, n)
		prng.NewSource(prng.SeedFromUint64s(21, uint64(i)), 3).UniformPoly(src[i], q)
	}
	v, dst := make([]uint64, n), make([]uint64, n)
	e.ReduceRange(src, y, v, 0, n)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CombineLimb(0, y, v, dst, 0, n)
	}
}
