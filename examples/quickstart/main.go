// Quickstart: the role-separated deployment the paper assumes, as three
// parties exchanging nothing but bytes — a key owner, an encrypting
// device holding only the public key, and a keyless evaluation server.
package main

import (
	"fmt"
	"log"

	abcfhe "repro"
	"repro/internal/core"
)

func main() {
	// Party 1 — the key owner, with a 128-bit seed: every key derives from
	// it, which is exactly what lets the accelerator keep only the seed on
	// chip (paper §IV-B). The owner exports the public key as bytes.
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 42, 43)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		log.Fatal(err)
	}

	// Party 2 — an encrypting device, built from the public-key bytes
	// alone (the blob embeds the parameter spec). It never sees secret
	// material; its own seed drives the encryption randomness.
	device, err := abcfhe.NewEncryptor(pkBytes, 7, 8)
	if err != nil {
		log.Fatal(err)
	}

	// The message: any complex vector with |values| ≤ 1, up to N/2 slots.
	msg := []complex128{0.5, -0.25, 0.125 + 0.5i, -0.75i}

	// Device, outbound: encode (IFFT + Expand RNS) then encrypt
	// (PRNG + NTT + public-key multiply-add), then serialize for the wire.
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		log.Fatal(err)
	}
	upload, err := device.SerializeCiphertext(ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encrypted %d slots into a depth-%d ciphertext (%d wire bytes)\n",
		len(msg), ct.Level(), len(upload))

	// Party 3 — the server: homomorphic work without any key material —
	// compute 2x + x = 3x, then drop to the 2-limb state clients receive.
	server, err := abcfhe.NewServer(abcfhe.Test)
	if err != nil {
		log.Fatal(err)
	}
	recv, err := server.DeserializeCiphertext(upload)
	if err != nil {
		log.Fatal(err)
	}
	doubled, err := server.Add(recv, recv)
	if err != nil {
		log.Fatal(err)
	}
	tripled, err := server.Add(doubled, recv)
	if err != nil {
		log.Fatal(err)
	}
	low, err := server.DropLevel(tripled, 2)
	if err != nil {
		log.Fatal(err)
	}
	reply, err := server.SerializeCiphertext(low)
	if err != nil {
		log.Fatal(err)
	}

	// Back at the key owner: decrypt (NTT·s + INTT) and decode (CRT + FFT).
	replyCt, err := owner.DeserializeCiphertext(reply)
	if err != nil {
		log.Fatal(err)
	}
	got, err := owner.DecryptDecode(replyCt)
	if err != nil {
		log.Fatal(err)
	}
	for i, want := range msg {
		fmt.Printf("slot %d: got %7.4f%+7.4fi  want %7.4f%+7.4fi\n",
			i, real(got[i]), imag(got[i]), 3*real(want), 3*imag(want))
	}

	// The modeled accelerator card for the same workflow at paper scale.
	s := core.Default().Summarize()
	fmt.Printf("\nABC-FHE model: enc %.3f ms, dec %.3f ms, %.1f mm², %.2f W @28nm\n",
		s.EncMS, s.DecMS, s.AreaMM2, s.PowerW)
}
