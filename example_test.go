package abcfhe_test

// Runnable godoc examples for the three deployment roles. Each party
// could live on its own machine — everything they exchange is bytes.

import (
	"errors"
	"fmt"
	"log"

	abcfhe "repro"
)

// The full three-party flow: the key owner exports a public key, a fleet
// device encrypts with it, the keyless server evaluates, and the owner
// decrypts the reply.
func Example() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, _ := owner.ExportPublicKey() // → ship to devices

	device, err := abcfhe.NewEncryptor(pkBytes, 100, 200) // device's own seed
	if err != nil {
		log.Fatal(err)
	}
	ct, err := device.EncodeEncrypt([]complex128{0.5, -0.25})
	if err != nil {
		log.Fatal(err)
	}
	upload, _ := device.SerializeCiphertext(ct) // → ship to the server

	server, err := abcfhe.NewServer(abcfhe.Test)
	if err != nil {
		log.Fatal(err)
	}
	recv, _ := server.DeserializeCiphertext(upload)
	tripled, err := server.MulConst(recv, 3)
	if err != nil {
		log.Fatal(err)
	}
	reply, _ := server.SerializeCiphertext(tripled) // → ship back

	back, _ := owner.DeserializeCiphertext(reply)
	slots, err := owner.DecryptDecode(back)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3 * 0.50 = %.2f\n", real(slots[0]))
	fmt.Printf("3 * -0.25 = %.2f\n", real(slots[1]))
	// Output:
	// 3 * 0.50 = 1.50
	// 3 * -0.25 = -0.75
}

// The KeyOwner role: generate keys, export the secret blob, and rebuild
// the owner on another machine from nothing but those bytes — including
// the byte-identical regenerated public key.
func ExampleKeyOwner() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 7, 8)
	if err != nil {
		log.Fatal(err)
	}
	skBytes, _ := owner.ExportSecretKey() // secret material — escrow safely
	pkBytes, _ := owner.ExportPublicKey()

	imported, err := abcfhe.NewKeyOwnerFromSecretKey(skBytes)
	if err != nil {
		log.Fatal(err)
	}
	pkAgain, _ := imported.ExportPublicKey()
	fmt.Println("public key regenerated identically:", string(pkBytes[:4]) == string(pkAgain[:4]) && len(pkBytes) == len(pkAgain))

	// The imported owner decrypts what the original owner's fleet encrypts.
	device, _ := abcfhe.NewEncryptor(pkBytes, 300, 400)
	ct, _ := device.EncodeEncrypt([]complex128{0.125})
	slots, err := imported.DecryptDecode(ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decrypted %.3f\n", real(slots[0]))
	// Output:
	// public key regenerated identically: true
	// decrypted 0.125
}

// The Encryptor role: a resource-constrained device bootstrapped from a
// marshaled public key alone — it never holds secret material.
func ExampleEncryptor() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 5, 6)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, _ := owner.ExportPublicKey()

	device, err := abcfhe.NewEncryptor(pkBytes, 11, 12, abcfhe.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	defer device.Close()

	cts, err := device.EncodeEncryptBatch([][]complex128{{0.5}, {-0.5}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encrypted %d messages at depth %d\n", len(cts), cts[0].Level)

	// Misuse returns typed errors, never panics.
	_, err = device.EncodeEncrypt(make([]complex128, device.Slots()+1))
	fmt.Println(err)
	// Output:
	// encrypted 2 messages at depth 4
	// abcfhe: message longer than slot count: 513 values, 512 slots
}

// Ciphertext × ciphertext multiplication: the KeyOwner exports an
// evaluation-key blob; the keyless Server imports it and multiplies two
// encrypted vectors slot-wise with relinearization, rescaling afterwards.
func ExampleServer_Mul() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 21, 22)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, _ := owner.ExportPublicKey()
	evkBytes, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{MaxLevel: 4})
	if err != nil {
		log.Fatal(err)
	}

	device, _ := abcfhe.NewEncryptor(pkBytes, 23, 24)
	ctX, _ := device.EncodeEncrypt([]complex128{0.5, -0.25})
	ctY, _ := device.EncodeEncrypt([]complex128{0.5, 2})

	// The server needs nothing but the blob: the parameter spec is
	// embedded, so it can bootstrap and import in one call.
	server, evk, err := abcfhe.NewServerFromEvaluationKeys(evkBytes)
	if err != nil {
		log.Fatal(err)
	}
	prod, err := server.Mul(ctX, ctY, evk)
	if err != nil {
		log.Fatal(err)
	}
	prod, _ = server.Rescale(prod) // product scale Δ² → back near Δ

	slots, _ := owner.DecryptDecode(prod)
	fmt.Printf("0.50 * 0.50 = %.3f\n", real(slots[0]))
	fmt.Printf("-0.25 * 2.00 = %.3f\n", real(slots[1]))
	// Output:
	// 0.50 * 0.50 = 0.250
	// -0.25 * 2.00 = -0.500
}

// Slot rotation: the evaluation-key set carries keys for the exported
// steps only; Rotate moves slot i+k into slot i.
func ExampleServer_Rotate() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 31, 32)
	if err != nil {
		log.Fatal(err)
	}
	pkBytes, _ := owner.ExportPublicKey()
	evkBytes, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{
		MaxLevel:  4,
		Rotations: []int{1},
	})
	if err != nil {
		log.Fatal(err)
	}

	device, _ := abcfhe.NewEncryptor(pkBytes, 33, 34)
	ct, _ := device.EncodeEncrypt([]complex128{1, 2, 3, 4})

	server, evk, err := abcfhe.NewServerFromEvaluationKeys(evkBytes)
	if err != nil {
		log.Fatal(err)
	}
	rot, err := server.Rotate(ct, 1, evk)
	if err != nil {
		log.Fatal(err)
	}
	slots, _ := owner.DecryptDecode(rot)
	fmt.Printf("first slots after rotating by 1: %.0f %.0f %.0f\n",
		real(slots[0]), real(slots[1]), real(slots[2]))

	// A step that was never exported is a typed error, not a panic.
	_, err = server.Rotate(ct, 7, evk)
	fmt.Println("step 7:", errors.Is(err, abcfhe.ErrEvaluationKeyMissing))
	// Output:
	// first slots after rotating by 1: 2 3 4
	// step 7: true
}

// Exporting evaluation keys: the owner chooses the depth cap and rotation
// steps (key bytes grow with both — export only what the server's
// circuit needs), and the blob is self-describing.
func ExampleKeyOwner_ExportEvaluationKeys() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 41, 42)
	if err != nil {
		log.Fatal(err)
	}
	evkBytes, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{
		MaxLevel:  2,
		Rotations: abcfhe.InnerSumRotations(4), // ladder for InnerSum over 4 slots
		Conjugate: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	server, evk, err := abcfhe.NewServerFromEvaluationKeys(evkBytes)
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	fmt.Println("depth cap:", evk.MaxLevel())
	fmt.Println("rotation steps:", evk.RotationSteps())
	fmt.Println("conjugation key:", evk.HasConjugate())
	// Output:
	// depth cap: 2
	// rotation steps: [1 2]
	// conjugation key: true
}

// The Server role: keyless — it expands seeded compressed uploads and
// evaluates without ever touching key material.
func ExampleServer() {
	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 9, 10)
	if err != nil {
		log.Fatal(err)
	}
	server, err := abcfhe.NewServer(abcfhe.Test)
	if err != nil {
		log.Fatal(err)
	}

	// The owner's seeded upload is about half the bytes of a full
	// ciphertext; the server regenerates the other half from the seed.
	compressed, err := owner.EncodeEncryptCompressed([]complex128{0.25})
	if err != nil {
		log.Fatal(err)
	}
	full, _ := server.CiphertextWireBytes(server.MaxLevel())
	fmt.Printf("compressed upload is %d%% of a full ciphertext\n", 100*len(compressed)/full)

	ct, err := server.ExpandCompressedUpload(compressed)
	if err != nil {
		log.Fatal(err)
	}
	low, err := server.DropLevel(ct, 2) // the 2-limb return state (§V-B)
	if err != nil {
		log.Fatal(err)
	}
	slots, err := owner.DecryptDecode(low)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decrypted %.2f\n", real(slots[0]))
	// Output:
	// compressed upload is 50% of a full ciphertext
	// decrypted 0.25
}
