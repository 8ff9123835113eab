// resnet20client reproduces the Fig. 1 scenario: the client side of a
// privacy-preserving ResNet20 inference, played out across the three
// deployment roles. An encrypting device encodes and encrypts a
// CIFAR-10-sized image into CKKS ciphertexts, the (simulated) server
// evaluates the network and returns logits at the 2-limb level, and the
// key owner decrypts and decodes them.
//
// It reports where the wall-clock time goes for three client platforms —
// this host's CPU (really measured), the SOTA prior accelerator, and
// ABC-FHE (both modeled) — reproducing the paper's observation that the
// client dominates end-to-end latency until ABC-FHE flips the balance.
package main

import (
	"fmt"
	"log"
	"time"

	abcfhe "repro"
	"repro/internal/baseline"
	"repro/internal/core"
)

func main() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 2024, 2025)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		log.Fatal(err)
	}
	device, err := abcfhe.NewEncryptor(pkBytes, 4040, 5050)
	if err != nil {
		log.Fatal(err)
	}
	server, err := abcfhe.NewServer(abcfhe.Test)
	if err != nil {
		log.Fatal(err)
	}

	// A CIFAR-10 image: 32·32·3 = 3072 values, packed into message slots.
	pixels := make([]complex128, 0, 3072)
	for i := 0; i < 3072; i++ {
		pixels = append(pixels, complex(float64(i%256)/255-0.5, 0))
	}
	perCt := device.Slots()
	nCt := (len(pixels) + perCt - 1) / perCt
	fmt.Printf("packing %d pixels into %d ciphertext(s) of %d slots\n", len(pixels), nCt, perCt)

	// --- Functional run on this host (device role) ----------------------
	start := time.Now()
	chunks := make([][]complex128, 0, nCt)
	for i := 0; i < nCt; i++ {
		chunk := pixels[i*perCt:]
		if len(chunk) > perCt {
			chunk = chunk[:perCt]
		}
		chunks = append(chunks, chunk)
	}
	cts, err := device.EncodeEncryptBatch(chunks)
	if err != nil {
		log.Fatal(err)
	}
	encodeTime := time.Since(start)

	// Server: a stand-in linear layer (the real network is the server
	// accelerator's concern — Fig. 1 takes its time from published
	// numbers) followed by the drop to the 2-limb return state.
	replies := make([]*abcfhe.Ciphertext, len(cts))
	for i, ct := range cts {
		doubled, err := server.Add(ct, ct)
		if err != nil {
			log.Fatal(err)
		}
		if replies[i], err = server.DropLevel(doubled, 2); err != nil {
			log.Fatal(err)
		}
	}

	// Key owner: decrypt+decode the returned logits.
	start = time.Now()
	decoded, err := owner.DecryptDecodeBatch(replies)
	if err != nil {
		log.Fatal(err)
	}
	decodeTime := time.Since(start)
	var logits []complex128
	for _, d := range decoded {
		logits = append(logits, d...)
	}
	fmt.Printf("this host (pure Go): client enc %v, client dec %v (%d logits)\n\n",
		encodeTime, decodeTime, len(logits))

	// --- Fig. 1 breakdown at paper scale --------------------------------
	acc := core.Default()
	rows := baseline.Fig1(acc.EncodeEncrypt().TimeMS, acc.DecodeDecrypt().TimeMS, nCt*64)
	fmt.Println("Fig. 1 — execution-time breakdown (ResNet20-FHE, modeled at N=2^16):")
	for _, r := range rows {
		client := r.ClientEncMS + r.ClientDecMS
		fmt.Printf("  %-28s client %9.1f ms  server %9.1f ms  client share %5.1f%%\n",
			r.Label, client, r.ServerMS, 100*r.ClientShare)
	}
	fmt.Println("\npaper marks: CPU 99.9%, SOTA client 69.4%, ABC-FHE 12.8% —")
	fmt.Println("the bottleneck moves off the client only with ABC-FHE.")
}
