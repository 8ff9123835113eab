// Encrypted dot product — the first end-to-end scenario where the server
// genuinely computes. ABC-FHE is a client-side accelerator: the paper's
// deployment assumes the ciphertexts it produces feed a compute server
// (the workloads BTS and ARK accelerate — linear layers, inner products).
// This example runs that loop across the three roles, with nothing but
// bytes crossing between them:
//
//	key owner  ── public-key blob ──▶ device
//	key owner  ── evaluation-key blob ──▶ server
//	device     ── ciphertext bytes ──▶ server
//	server     ── ciphertext bytes ──▶ key owner
//
// The server computes two things it could never do with additions alone:
//
//  1. ⟨x, y⟩ over two *encrypted* vectors: slot-wise Mul (ct×ct with
//     relinearization) + rotation-based InnerSum + Rescale.
//  2. A ResNet-style linear layer row: DotPlain — the encrypted input
//     against a plaintext weight vector.
package main

import (
	"fmt"
	"log"

	abcfhe "repro"
)

const span = 8 // dot-product width (power of two)

func main() {
	// Party 1 — the key owner. Two blobs leave this machine: the public
	// key (for the encrypting fleet) and the evaluation keys (for the
	// server). The evaluation keys are depth-capped at the circuit the
	// server runs — key bytes grow with depth, so exporting full-depth
	// keys for a depth-4 circuit would be pure waste.
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 2024, 2025)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		log.Fatal(err)
	}
	evkBytes, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{
		MaxLevel:  4,
		Rotations: abcfhe.InnerSumRotations(span),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key owner: public key %d B, evaluation keys %d B (depth 4, rotations %v)\n",
		len(pkBytes), len(evkBytes), abcfhe.InnerSumRotations(span))

	// Party 2 — the device encrypts two vectors with nothing but the
	// public-key blob.
	device, err := abcfhe.NewEncryptor(pkBytes, 7, 8)
	if err != nil {
		log.Fatal(err)
	}
	x := make([]complex128, span)
	y := make([]complex128, span)
	var wantDot complex128
	for i := range x {
		x[i] = complex(0.1*float64(i+1), 0)
		y[i] = complex(0.5-0.1*float64(i), 0)
		wantDot += x[i] * y[i]
	}
	ctX, err := device.EncodeEncrypt(x)
	if err != nil {
		log.Fatal(err)
	}
	ctY, err := device.EncodeEncrypt(y)
	if err != nil {
		log.Fatal(err)
	}
	upX, _ := device.SerializeCiphertext(ctX)
	upY, _ := device.SerializeCiphertext(ctY)

	// Party 3 — the server bootstraps from the evaluation-key blob alone
	// (the parameter spec is embedded) and computes on ciphertext bytes.
	server, evk, err := abcfhe.NewServerFromEvaluationKeys(evkBytes)
	if err != nil {
		log.Fatal(err)
	}
	a, err := server.DeserializeCiphertext(upX)
	if err != nil {
		log.Fatal(err)
	}
	b, err := server.DeserializeCiphertext(upY)
	if err != nil {
		log.Fatal(err)
	}
	a, _ = server.DropLevel(a, evk.MaxLevel())
	b, _ = server.DropLevel(b, evk.MaxLevel())

	// ct×ct dot product: slot-wise multiply, rotation-based inner sum
	// (rotate first, rescale last — key-switch noise is additive at the
	// current scale, so it is spent while the scale is still Δ²).
	prod, err := server.Mul(a, b, evk)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := server.InnerSum(prod, span, evk)
	if err != nil {
		log.Fatal(err)
	}
	sum, err = server.Rescale(sum)
	if err != nil {
		log.Fatal(err)
	}
	replyDot, err := server.SerializeCiphertext(sum)
	if err != nil {
		log.Fatal(err)
	}

	// Linear layer row: the encrypted input against plaintext weights
	// (how an FHE inference server applies a fully-connected layer).
	weights := []complex128{0.25, -0.5, 0.75, -1, 1, -0.75, 0.5, -0.25}
	layer, err := server.DotPlain(a, weights, evk)
	if err != nil {
		log.Fatal(err)
	}
	replyLayer, err := server.SerializeCiphertext(layer)
	if err != nil {
		log.Fatal(err)
	}
	var wantLayer complex128
	for i, w := range weights {
		wantLayer += w * x[i]
	}

	// Back at the key owner: decrypt both replies.
	report := func(name string, reply []byte, want complex128) {
		ct, err := owner.DeserializeCiphertext(reply)
		if err != nil {
			log.Fatal(err)
		}
		got, err := owner.DecryptDecode(ct)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: got %8.5f, want %8.5f (reply %d B at level %d)\n",
			name, real(got[0]), real(want), len(reply), ct.Level())
	}
	report("ct×ct ⟨x,y⟩   ", replyDot, wantDot)
	report("plain-weight W·x", replyLayer, wantLayer)
}
