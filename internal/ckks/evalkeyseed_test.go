package ckks

import (
	"bytes"
	"math/big"
	"slices"
	"testing"

	"repro/internal/prng"
	"repro/internal/ring"
)

// Seeded evaluation keys: the blob carries the mask seed and the b rows,
// and the receiver regenerates every a row. These tests check the
// imported keys against the key-switching relation itself, and that the
// seed split leaks neither the generator seed nor the row errors.

// importedKeys generates a full-depth set (relinearization, conjugation,
// rotation by 1) on p from testSeed, round-trips it through the wire and
// returns the generator, the blob and the imported set.
func importedKeys(t *testing.T, p *Parameters) (*KeyGenerator, []byte, *EvaluationKeySet) {
	t.Helper()
	kg := NewKeyGenerator(p, testSeed())
	ks := kg.GenEvaluationKeySet(kg.GenSecretKey(), p.MaxLevel(), []int{1}, true, GadgetHybrid)
	blob, err := p.MarshalEvaluationKeySet(ks)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.UnmarshalEvaluationKeySet(blob)
	if err != nil {
		t.Fatal(err)
	}
	return kg, blob, back
}

// keyRowErrors returns, per row j of ksk, the centered error
// e_j = H0[j] + H1[j]·s − P·δ_j·f read from limb 0, after checking that
// every limb of the extended basis holds the same integer and that it is
// within ±⌈6σ⌉ (prng.GaussianTailCut). s and f are NTT-domain over
// RingQPAt(ksk.Level); P mod q_i is computed here from the special primes
// rather than taken from the parameters' gadget table.
func keyRowErrors(t *testing.T, p *Parameters, ksk *SwitchingKey, s, f *ring.Poly) [][]int64 {
	t.Helper()
	depth := ksk.Level
	rqp := p.RingQPAt(depth)
	bigP := big.NewInt(1)
	for _, q := range p.SpecialPrimes() {
		bigP.Mul(bigP, new(big.Int).SetUint64(q))
	}
	out := make([][]int64, len(ksk.H0))
	for j := range ksk.H0 {
		e := rqp.NewPoly()
		rqp.MulCoeffs(ksk.H1[j], s, e)
		rqp.Add(e, ksk.H0[j], e)
		for i := j * p.SpecialLimbs; i < min((j+1)*p.SpecialLimbs, depth); i++ {
			m := rqp.Basis.Moduli[i]
			pi := new(big.Int).Mod(bigP, new(big.Int).SetUint64(m.Q)).Uint64()
			for x := range e.Coeffs[i] {
				e.Coeffs[i][x] = m.Sub(e.Coeffs[i][x], m.Mul(f.Coeffs[i][x], pi))
			}
		}
		rqp.INTT(e)
		out[j] = make([]int64, rqp.N)
		for i, row := range e.Coeffs {
			m := rqp.Basis.Moduli[i]
			for x, v := range row {
				c := m.Centered(v)
				if c > prng.GaussianTailCut || c < -prng.GaussianTailCut {
					t.Fatalf("row %d limb %d coefficient %d: error %d outside ±%d", j, i, x, c, prng.GaussianTailCut)
				}
				if i == 0 {
					out[j][x] = c
				} else if c != out[j][x] {
					t.Fatalf("row %d coefficient %d: limb %d holds %d, limb 0 holds %d", j, x, i, c, out[j][x])
				}
			}
		}
	}
	return out
}

// gaussianRow is the centered Gaussian row a PRNG stream yields.
func gaussianRow(rqp *ring.Ring, seed [16]byte, stream uint64) []int64 {
	g := rqp.NewPoly()
	rqp.GaussianPoly(prng.NewSource(seed, stream), g)
	m := rqp.Basis.Moduli[0]
	out := make([]int64, rqp.N)
	for x, v := range g.Coeffs[0] {
		out[x] = m.Centered(v)
	}
	return out
}

// TestEvalKeyRowsAreRLWEOracle: every row of an imported relinearization,
// conjugation and rotation key satisfies the hybrid key relation
// H0[j] + H1[j]·s = P·δ_j·f + e_j with e_j a small integer polynomial.
// The target f is built independently of keygen's NTT-domain gather: s²
// for relinearization, s(X^g) through the coefficient-domain automorphism
// for the Galois keys. The recovered error is then pinned to the secret
// seed's stream and shown not to be the mask seed's: whoever holds the
// blob can rebuild the a rows but not e.
func TestEvalKeyRowsAreRLWEOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    func() *Parameters
	}{
		{"Test", func() *Parameters { return testParams }},
		{"PN13", PN13.MustBuild},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p()
			kg, _, ks := importedKeys(t, p)
			depth := ks.MaxLevel
			rqp := p.RingQPAt(depth)
			s := kg.secretQP(depth)
			defer rqp.PutPoly(s)

			galois := func(g int) *ring.Poly {
				sc := rqp.CopyPoly(s)
				rqp.INTT(sc)
				f := rqp.NewPoly()
				rqp.AutomorphismCoeff(sc, g, f)
				rqp.NTT(f)
				return f
			}
			s2 := rqp.NewPoly()
			rqp.MulCoeffs(s, s, s2)
			keys := []struct {
				name string
				ksk  *SwitchingKey
				f    *ring.Poly
				base uint64
			}{
				{"relin", ks.Rlk.K, s2, hybridRelinStreamBase},
				{"conjugate", ks.Conj.K, galois(ks.Conj.G), hybridRotationStreamBase(ks.Conj.G)},
				{"rotate-1", ks.Rot[1].K, galois(ks.Rot[1].G), hybridRotationStreamBase(ks.Rot[1].G)},
			}
			for _, k := range keys {
				for j, e := range keyRowErrors(t, p, k.ksk, s, k.f) {
					stream := maskStream(k.base, j) + 1
					if !slices.Equal(e, gaussianRow(rqp, testSeed(), stream)) {
						t.Errorf("%s row %d: error is not the secret seed's Gaussian stream", k.name, j)
					}
					if slices.Equal(e, gaussianRow(rqp, ks.MaskSeed, stream)) {
						t.Errorf("%s row %d: error is derivable from the wire's mask seed", k.name, j)
					}
				}
			}
		})
	}
}

// TestEvalKeySeedSplit: the blob carries the mask seed — one-way derived
// from the generator seed and distinct from it and from the upload mask
// seed — and never the generator seed's bytes. Flipping a seed bit still
// parses (the b rows are intact), regenerates different masks, and
// re-marshals to the same bytes.
func TestEvalKeySeedSplit(t *testing.T) {
	p := testParams
	seed := testSeed()
	_, blob, ks := importedKeys(t, p)
	if bytes.Contains(blob, seed[:]) {
		t.Fatal("evaluation-key blob contains the generator seed")
	}
	mask := deriveEvalKeyMaskSeed(seed)
	if ks.MaskSeed != mask {
		t.Fatalf("blob mask seed %x, want deriveEvalKeyMaskSeed(seed) %x", ks.MaskSeed, mask)
	}
	if mask == seed || mask == DeriveUploadSeed(seed) {
		t.Fatal("evaluation-key mask seed coincides with the generator or upload mask seed")
	}

	flipped := append([]byte(nil), blob...)
	flipped[keyHeaderLen()+evalSeedOff] ^= 1
	back, err := p.UnmarshalEvaluationKeySet(flipped)
	if err != nil {
		t.Fatalf("seed bit flip: %v", err)
	}
	again, err := p.MarshalEvaluationKeySet(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, flipped) {
		t.Fatal("seed bit flip: re-marshal not canonical")
	}
	rqp := p.RingQPAt(ks.MaxLevel)
	if rqp.Equal(back.Rlk.K.H1[0], ks.Rlk.K.H1[0]) {
		t.Fatal("seed bit flip regenerated the same mask row")
	}
}
