package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIKeyRoundTrip drives keygen → encrypt → decrypt through the
// subcommand entry points on real files — each step shares nothing with
// the previous one except the bytes on disk, the same property the CI
// step checks across actual processes.
func TestCLIKeyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pk := filepath.Join(dir, "pk.key")
	sk := filepath.Join(dir, "sk.key")
	ct := filepath.Join(dir, "ct.bin")
	msg := filepath.Join(dir, "msg.txt")
	out := filepath.Join(dir, "out.txt")

	if err := os.WriteFile(msg, []byte("0.5\n-0.25 0.125\n# comment\n0 -0.75\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runKeygen([]string{"-preset", "Test", "-pk", pk, "-sk", sk}); err != nil {
		t.Fatal("keygen:", err)
	}
	if err := runEncrypt([]string{"-pk", pk, "-in", msg, "-out", ct}); err != nil {
		t.Fatal("encrypt:", err)
	}
	// Self-checking decrypt: -expect verifies against the original message.
	if err := runDecrypt([]string{"-sk", sk, "-in", ct, "-expect", msg, "-out", out, "-n", "3"}); err != nil {
		t.Fatal("decrypt:", err)
	}
	// -n trims only the output; -expect always sees the full decryption.
	if err := runDecrypt([]string{"-sk", sk, "-in", ct, "-expect", msg, "-n", "1"}); err != nil {
		t.Fatal("decrypt -n 1 with longer -expect:", err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("decrypt -n 3 wrote %d lines", len(lines))
	}
	// The emitted text round-trips through the message parser.
	back, err := readMessageFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("parsed %d values", len(back))
	}
}

// TestCLIEvalFlow drives the encrypted-compute loop across the file
// boundary: keygen → evalkeys → two encrypts → eval mul (+rescale) → eval
// dot → self-verifying decrypts. The eval steps hold only the
// evaluation-key blob and ciphertext files — the server role end to end.
func TestCLIEvalFlow(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }

	// x = (0.5, -0.25), y = (0.5, 0.5) → x⊙y = (0.25, -0.125);
	// dot(x, w=(1, 2)) = 0.5 − 0.5 = 0.
	if err := os.WriteFile(p("x.txt"), []byte("0.5\n-0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p("y.txt"), []byte("0.5\n0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p("w.txt"), []byte("1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p("prod.txt"), []byte("0.25\n-0.125\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p("dot.txt"), []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runKeygen([]string{"-preset", "Test", "-pk", p("pk.key"), "-sk", p("sk.key")}); err != nil {
		t.Fatal("keygen:", err)
	}
	if err := runEvalKeys([]string{"-sk", p("sk.key"), "-out", p("evk.bin"), "-rotations", "1"}); err != nil {
		t.Fatal("evalkeys:", err)
	}
	if err := runEncrypt([]string{"-pk", p("pk.key"), "-in", p("x.txt"), "-out", p("x.bin")}); err != nil {
		t.Fatal("encrypt x:", err)
	}
	if err := runEncrypt([]string{"-pk", p("pk.key"), "-in", p("y.txt"), "-out", p("y.bin")}); err != nil {
		t.Fatal("encrypt y:", err)
	}

	// ct×ct multiply with one rescale (Test preset's Δ spans one limb).
	if err := runEval([]string{"-evk", p("evk.bin"), "-op", "mul",
		"-a", p("x.bin"), "-b", p("y.bin"), "-rescale", "1", "-out", p("prod.bin")}); err != nil {
		t.Fatal("eval mul:", err)
	}
	// tol 1e-3: the Test preset's post-rescale scale is 2^24, so product
	// noise sits just above the 1e-4 default.
	if err := runDecrypt([]string{"-sk", p("sk.key"), "-in", p("prod.bin"),
		"-expect", p("prod.txt"), "-tol", "1e-3"}); err != nil {
		t.Fatal("decrypt product:", err)
	}

	// Plaintext-weight dot product: slot 0 holds Σ w·x (rotation noise at
	// the Test preset's scale needs the looser tolerance).
	if err := runEval([]string{"-evk", p("evk.bin"), "-op", "dot",
		"-a", p("x.bin"), "-weights", p("w.txt"), "-out", p("dot.bin")}); err != nil {
		t.Fatal("eval dot:", err)
	}
	if err := runDecrypt([]string{"-sk", p("sk.key"), "-in", p("dot.bin"),
		"-expect", p("dot.txt"), "-tol", "0.05"}); err != nil {
		t.Fatal("decrypt dot:", err)
	}

	// Misuse stays an error, never a panic: rotation step without a key.
	if err := runEval([]string{"-evk", p("evk.bin"), "-op", "rotate", "-by", "3",
		"-a", p("x.bin"), "-out", p("rot.bin")}); err == nil {
		t.Fatal("rotation by an ungenerated step must fail")
	}

	// A key blob carrying the retired digit-gadget tag (0) is refused with
	// a one-line error naming the gadget, and the flag that used to select
	// that gadget is gone.
	evk, err := os.ReadFile(p("evk.bin"))
	if err != nil {
		t.Fatal(err)
	}
	evk[14] = 0 // the gadget byte follows the 14-byte key header
	if err := os.WriteFile(p("evk-retired.bin"), evk, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runEval([]string{"-evk", p("evk-retired.bin"), "-op", "mul",
		"-a", p("x.bin"), "-b", p("y.bin"), "-out", p("never.bin")})
	if err == nil || !strings.Contains(err.Error(), "gadget") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("eval over a retired-gadget blob: %v", err)
	}
	if err := runEvalKeys([]string{"-sk", p("sk.key"), "-gadget", "bv", "-out", p("never.bin")}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("evalkeys -gadget bv: %v", err)
	}
}

// TestCLIHomomorphicDFTFlow drives the CoeffsToSlots → SlotsToCoeffs
// round trip across the file boundary: the evalkeys blob carries the
// DFT's rotation ladder (-dft-levels), eval c2s fans one ciphertext into
// the two coefficient-half ciphertexts, eval s2c folds them back, and a
// self-verifying decrypt confirms the message survived.
func TestCLIHomomorphicDFTFlow(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }

	if err := os.WriteFile(p("msg.txt"), []byte("0.5\n-0.25 0.125\n0.0625 -0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runKeygen([]string{"-preset", "Test", "-pk", p("pk.key"), "-sk", p("sk.key")}); err != nil {
		t.Fatal("keygen:", err)
	}
	if err := runEvalKeys([]string{"-sk", p("sk.key"), "-out", p("evk.bin"), "-dft-levels", "1"}); err != nil {
		t.Fatal("evalkeys:", err)
	}
	if err := runEncrypt([]string{"-pk", p("pk.key"), "-in", p("msg.txt"), "-out", p("ct.bin")}); err != nil {
		t.Fatal("encrypt:", err)
	}
	if err := runEval([]string{"-evk", p("evk.bin"), "-op", "c2s", "-dft-levels", "1",
		"-a", p("ct.bin"), "-out", p("re.bin"), "-out2", p("im.bin")}); err != nil {
		t.Fatal("eval c2s:", err)
	}
	if err := runEval([]string{"-evk", p("evk.bin"), "-op", "s2c", "-dft-levels", "1",
		"-a", p("re.bin"), "-b", p("im.bin"), "-out", p("back.bin")}); err != nil {
		t.Fatal("eval s2c:", err)
	}
	// tol 0.05: the Test preset's Δ = 2^30 leaves the DFT round trip near
	// its structural noise floor (same budget the library-level test uses).
	if err := runDecrypt([]string{"-sk", p("sk.key"), "-in", p("back.bin"),
		"-expect", p("msg.txt"), "-tol", "0.05"}); err != nil {
		t.Fatal("decrypt round trip:", err)
	}

	// The c2s leg without the DFT ladder in the blob errors cleanly.
	if err := runEvalKeys([]string{"-sk", p("sk.key"), "-out", p("bare.bin"), "-rotations", "1"}); err != nil {
		t.Fatal("evalkeys bare:", err)
	}
	if err := runEval([]string{"-evk", p("bare.bin"), "-op", "c2s",
		"-a", p("ct.bin"), "-out", p("re2.bin"), "-out2", p("im2.bin")}); err == nil {
		t.Fatal("c2s without the DFT rotation keys must fail")
	}
}

// TestCLIKeygenDefaultSeedsAreFresh: without explicit -seed flags every
// keygen must draw a fresh crypto/rand seed — two default runs may never
// emit the same key material (a fixed default would hand every user the
// same secret key).
func TestCLIKeygenDefaultSeedsAreFresh(t *testing.T) {
	dir := t.TempDir()
	paths := func(tag string) (string, string) {
		return filepath.Join(dir, tag+".pk"), filepath.Join(dir, tag+".sk")
	}
	pkA, skA := paths("a")
	pkB, skB := paths("b")
	if err := runKeygen([]string{"-preset", "Test", "-pk", pkA, "-sk", skA}); err != nil {
		t.Fatal(err)
	}
	if err := runKeygen([]string{"-preset", "Test", "-pk", pkB, "-sk", skB}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(pkA)
	b, _ := os.ReadFile(pkB)
	if string(a) == string(b) {
		t.Fatal("two default keygens produced identical public keys")
	}

	// Pinned seeds stay reproducible.
	pkC, skC := paths("c")
	pkD, skD := paths("d")
	for _, p := range [][2]string{{pkC, skC}, {pkD, skD}} {
		if err := runKeygen([]string{"-preset", "Test", "-seed-lo", "5", "-seed-hi", "6",
			"-pk", p[0], "-sk", p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := os.ReadFile(pkC)
	d, _ := os.ReadFile(pkD)
	if string(c) != string(d) {
		t.Fatal("pinned seeds must be reproducible")
	}
}

// TestCLIDecryptDetectsTamper flips ciphertext bytes on disk and expects
// the decrypt subcommand to fail cleanly (error, not panic).
func TestCLIDecryptDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	pk := filepath.Join(dir, "pk.key")
	sk := filepath.Join(dir, "sk.key")
	ct := filepath.Join(dir, "ct.bin")
	msg := filepath.Join(dir, "msg.txt")

	if err := os.WriteFile(msg, []byte("0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runKeygen([]string{"-preset", "Test", "-pk", pk, "-sk", sk}); err != nil {
		t.Fatal(err)
	}
	if err := runEncrypt([]string{"-pk", pk, "-in", msg, "-out", ct}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ct)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-7] // truncate
	if err := os.WriteFile(ct, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runDecrypt([]string{"-sk", sk, "-in", ct}); err == nil {
		t.Fatal("truncated ciphertext must fail to decrypt")
	}
}

// TestCLIWrongKeyFails ensures decrypt with a different keypair's secret
// key is either rejected or fails -expect verification — never silently
// "succeeds".
func TestCLIWrongKeyFails(t *testing.T) {
	dir := t.TempDir()
	pkA := filepath.Join(dir, "a.pk")
	skA := filepath.Join(dir, "a.sk")
	skB := filepath.Join(dir, "b.sk")
	ct := filepath.Join(dir, "ct.bin")
	msg := filepath.Join(dir, "msg.txt")

	if err := os.WriteFile(msg, []byte("0.5 -0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runKeygen([]string{"-preset", "Test", "-pk", pkA, "-sk", skA}); err != nil {
		t.Fatal(err)
	}
	if err := runKeygen([]string{"-preset", "Test", "-seed-lo", "999", "-seed-hi", "111",
		"-pk", filepath.Join(dir, "b.pk"), "-sk", skB}); err != nil {
		t.Fatal(err)
	}
	if err := runEncrypt([]string{"-pk", pkA, "-in", msg, "-out", ct}); err != nil {
		t.Fatal(err)
	}
	if err := runDecrypt([]string{"-sk", skB, "-in", ct, "-expect", msg}); err == nil {
		t.Fatal("decrypting with the wrong secret key must fail verification")
	}
}
