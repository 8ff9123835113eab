package abcfhe

// Byte-identity pins for deletion PRs (ROADMAP item 13): SHA-256 of the
// fixed-seed Test-preset key blobs, one ciphertext and the serialized
// output of every key-switching op, asserted under both backends and
// worker counts 1 and 8. A change that claims to preserve behaviour keeps
// every one of them.
//
// "public-key" and "ciphertext" date from the commit before the BV gadget
// was removed. The evaluation-key and key-switching-op pins were re-pinned
// when switching-key masks moved to the public mask seed (the commit after
// 7ab7bd0): that moved every a_j row, and with them every op output, and
// nothing else — with the masks drawn from the old stream the re-pinned
// code reproduced every earlier pin, including 7ab7bd0's full-row blob.
//
// "lintrans-c2s" pins the serialized re‖im of a CoeffsToSlots (Levels 1)
// on the first ciphertext; it was first pinned with the double-hoisted
// linear transform (one ModDown per giant block, one per transform).
//
// "mulconst" pins MulConst(−0.3) on the first ciphertext. It was pinned
// on the scalar-product MulConst and held when MulConst became one
// constant-product pass at scale 2^30.
//
// "eval-keys" pins the seeded wire blob (mask seed plus b rows).
// "eval-keys-coeff" pins the imported keys' full content, both halves, on
// a test-only re-encoding into the retired coefficient-domain layout, so
// the regenerated mask rows are pinned too, not only the seed that
// produces them.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ckks"
	"repro/internal/lanes"
	"repro/internal/ring"
)

var goldenSHA256 = map[string]string{
	"public-key":      "84121cb129bbbaface7f81b0e130fe0ebbe4536d921b2754f8bc922f5be04681",
	"eval-keys":       "4d959206eab40e7208720f09c29332b20cf36b5dafd40777ceaddc3d6835bed4",
	"eval-keys-coeff": "02d9f16b10718cee0e31f08164ad0b3d3060e8cfdfa3b4ef76d46776687be6ba",
	"ciphertext":      "8e224cf9b1a59b4a0149e0e3fbd2685994791c90a38e59d469e912d39d179a51",
	"mul-rescale":     "43c19edd56710c3987a2a9ed2f4c0760bc92b037c4bc18d2baeef999d2d0042d",
	"rotate-1":        "704bb7310ea8942e473fc2c56c70c2e868556ae4a0a65979848bbbaaa825a753",
	"conjugate":       "6f11500f49edbd6dc686d1eacc0695cdebec2659623597e33bb182acb06dae1c",
	"innersum-4":      "58a81f9d77713a0bcaca08b393687a4c1aac2aef461c38f04fb970c443ee875d",
	"lintrans-c2s":    "b26643d5c090b5044f239aede312304d99a395c3da7fc30803b402ac7862a1f4",
	"mulconst":        "0989c3c98f4e8aa3b49f2721acdc4c02400404135c5b168ae8fe8febb7cb5b1b",
}

func TestGoldenBytes(t *testing.T) {
	for _, backend := range []lanes.Backend{lanes.Portable, lanes.Fast} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend.Name(), workers), func(t *testing.T) {
				goldenRun(t, withKernels(backend), WithWorkers(workers))
			})
		}
	}
}

func goldenRun(t *testing.T, opts ...Option) {
	owner, device, server := threeParties(t, Test, 0x601D, 0xE11, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()

	pin := func(name string, blob []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != goldenSHA256[name] {
			t.Errorf("%s: sha256 %s, pinned %s", name, got, goldenSHA256[name])
		}
	}
	pinCt := func(name string, ct *Ciphertext, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := server.SerializeCiphertext(ct)
		pin(name, blob, err)
	}

	pk, err := owner.ExportPublicKey()
	pin("public-key", pk, err)
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{Rotations: []int{1, 2}, Conjugate: true})
	pin("eval-keys", evkBytes, err)
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	pin("eval-keys-coeff", retiredLayout(server.params, evk.set, evkBytes, 0), nil)

	msgs := testMsgs(device.Slots(), 2)
	cts, err := device.EncodeEncryptBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	pinCt("ciphertext", cts[0], nil)

	mul, err := server.Mul(cts[0], cts[1], evk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := server.Rescale(mul)
	pinCt("mul-rescale", res, err)
	rot, err := server.Rotate(cts[0], 1, evk)
	pinCt("rotate-1", rot, err)
	conj, err := server.Conjugate(cts[0], evk)
	pinCt("conjugate", conj, err)
	isum, err := server.InnerSum(cts[0], 4, evk)
	pinCt("innersum-4", isum, err)
	mc, err := server.MulConst(cts[0], -0.3)
	pinCt("mulconst", mc, err)

	dft, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: server.MaxLevel(), Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	dftKeys, err := owner.ExportEvaluationKeys(EvalKeyConfig{Rotations: dft.Rotations(), Conjugate: true})
	if err != nil {
		t.Fatal(err)
	}
	dftEvk, err := server.ImportEvaluationKeys(dftKeys)
	if err != nil {
		t.Fatal(err)
	}
	re, im, err := server.CoeffsToSlots(cts[0], dft, dftEvk)
	if err != nil {
		t.Fatal(err)
	}
	var c2s []byte
	for _, ct := range []*Ciphertext{re, im} {
		blob, err := server.SerializeCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		c2s = append(c2s, blob...)
	}
	pin("lintrans-c2s", c2s, nil)
}

// retiredLayout re-encodes an imported key set in a retired full-row wire
// layout: the blob's headers without the mask seed and with the given
// layout byte, then every row in wire order (relin, conjugate, rotations
// by ascending step; per group H0 then H1) packed at 44 bits, least
// significant bit first. Layout 0 carried the rows in the coefficient
// domain, layout 1 as they sit in memory (NTT domain).
func retiredLayout(p *ckks.Parameters, set *ckks.EvaluationKeySet, blob []byte, layout byte) []byte {
	keys := []*ckks.SwitchingKey{set.Rlk.K}
	if set.Conj != nil {
		keys = append(keys, set.Conj.K)
	}
	for _, s := range set.Steps() {
		keys = append(keys, set.Rot[s].K)
	}
	const sub = 14 + 5 // key header, then gadget, digits, depth, flags, layout
	out := append([]byte(nil), blob[:sub]...)
	out[sub-1] = layout
	// Skip the mask seed; keep the rotation count and steps.
	out = append(out, blob[sub+16:sub+16+2+4*len(set.Steps())]...)
	var acc uint64 // the low `pending` bits are not yet written
	var pending uint
	rqp := p.RingQPAt(set.MaxLevel)
	for _, k := range keys {
		for j := range k.H0 {
			for _, h := range [][]ring.NarrowPoly{k.H0, k.H1} {
				c := rqp.Widen(&h[j])
				c.IsNTT = true
				if layout == 0 {
					rqp.INTT(c)
				}
				for _, row := range c.Coeffs {
					for _, v := range row {
						acc |= v << pending // pending < 8: fits in 52 bits
						for pending += ckks.PackedWordBits; pending >= 8; pending -= 8 {
							out = append(out, byte(acc))
							acc >>= 8
						}
					}
				}
			}
		}
	}
	if pending > 0 {
		out = append(out, byte(acc))
	}
	return out
}
