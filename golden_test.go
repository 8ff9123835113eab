package abcfhe

// Byte-identity pins for deletion PRs (ROADMAP item 4): SHA-256 of the
// fixed-seed Test-preset key blobs, one ciphertext and the serialized
// output of every key-switching op, asserted under both backends and
// worker counts 1 and 8. The hashes were computed at the commit before the
// BV gadget was removed; a change that claims to preserve behaviour keeps
// every one of them.
//
// "eval-keys-coeff" is that commit's evaluation-key blob, which carried
// the keys in the coefficient domain; the wire now carries them in the NTT
// domain ("eval-keys"), so the older pin is checked on a test-only
// re-encoding of the imported keys into the retired layout — the key
// content is pinned across the wire change, not just re-pinned.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ckks"
	"repro/internal/ring"
)

var goldenSHA256 = map[string]string{
	"public-key":      "84121cb129bbbaface7f81b0e130fe0ebbe4536d921b2754f8bc922f5be04681",
	"eval-keys":       "08d99e0538ec64bda14a3eeb08c2264433d9405e90b35abfe85b294437ac94a3",
	"eval-keys-coeff": "f8a740a933085bea1621d2717666de9ef0b16a3807b1fd37cbb591ece89e61e9",
	"ciphertext":      "8e224cf9b1a59b4a0149e0e3fbd2685994791c90a38e59d469e912d39d179a51",
	"mul-rescale":     "ed88cc70078f8abd08f08103ff7f36cd37a80663565cd20f635b94360f16aa07",
	"rotate-1":        "71ab771221090490e90fef77602e6ebd358f581e05bb6d9c283885d5619dc6c1",
	"conjugate":       "dec99e2f1261cbb7fc3fa6ae6b2f857c50bd58b6c03bad0e7590d71acc40d817",
	"innersum-4":      "900e64d4772854495bd186a5c22f7afe47ff60fe046a2cef8ac200a11331b5df",
}

func TestGoldenBytes(t *testing.T) {
	for _, backend := range []string{"portable", "fast"} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				goldenRun(t, WithBackend(backend), WithWorkers(workers))
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
	pin("eval-keys-coeff", coefficientLayout(server.params, evk.set, evkBytes), nil)

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
}

// coefficientLayout re-encodes an imported key set in the retired
// coefficient-domain wire layout: blob's headers with domain byte 0, then
// every row in wire order (relin, conjugate, rotations by ascending step;
// per group H0 then H1) inverse-transformed and packed at 44 bits, least
// significant bit first.
func coefficientLayout(p *ckks.Parameters, set *ckks.EvaluationKeySet, blob []byte) []byte {
	keys := []*ckks.SwitchingKey{set.Rlk.K, set.Conj.K}
	for _, s := range set.Steps() {
		keys = append(keys, set.Rot[s].K)
	}
	headerLen := 14 + 7 + 4*len(set.Steps())
	out := append([]byte(nil), blob[:headerLen]...)
	out[14+4] = 0
	var acc uint64 // the low `pending` bits are not yet written
	var pending uint
	rqp := p.RingQPAt(set.MaxLevel)
	for _, k := range keys {
		for j := range k.H0 {
			for _, h := range []*ring.Poly{k.H0[j], k.H1[j]} {
				c := rqp.CopyPoly(h)
				rqp.INTT(c)
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
