// Command abc-fhe drives the client-side CKKS workflow.
//
// Without a subcommand it prints the demo card: the workflow run both
// functionally (the from-scratch Go implementation) and on the modeled
// accelerator — correctness/precision from the real computation,
// latency/area/power from the model.
//
// The subcommands operate the role-separated deployment on key and
// ciphertext files, so the three parties can run in three separate
// processes (or machines):
//
//	abc-fhe keygen   -preset Test -pk pk.key -sk sk.key     # key owner
//	abc-fhe evalkeys -sk sk.key -rotations 1,2 -out evk.bin # key owner → server
//	abc-fhe encrypt  -pk pk.key -in msg.txt -out ct.bin     # device (public key only)
//	abc-fhe eval     -evk evk.bin -op mul -a x.bin -b y.bin -out ct.bin  # server (keyless)
//	abc-fhe decrypt  -sk sk.key -in ct.bin                  # key owner
//
// The eval subcommand bootstraps its server from the evaluation-key blob
// alone (the parameter spec is embedded) and runs one row of the
// evaluation-op table in internal/evalop — the encrypted-compute surface
// of the Server role, the same rows `abc-fhe serve` exposes under
// /v1/eval/{op}; `abc-fhe eval -h` lists them. A row's operands are
// files: ciphertexts via -a/-b, text values via -weights (dot) or -coeffs
// (evalpoly). c2s (CoeffsToSlots) emits two ciphertexts (-out the real
// coefficient half, -out2 the imaginary one); s2c inverts it, taking the
// pair back via -a/-b. Both need an evaluation-key blob exported with
// `evalkeys -dft-levels N`. evalpoly applies the polynomial whose
// monomial coefficients -coeffs lists (one per line, degree order) over
// the interval the -lo/-hi flags give, via the BSGS Chebyshev schedule;
// evalmod applies the sine-surrogate modular reduction (-degree, -range)
// — the bootstrap stage that follows c2s; expand regenerates a full
// ciphertext from a seeded compressed upload (-a). Message files hold one
// complex value per line: "re" or "re im".
//
// Demo usage:
//
//	abc-fhe                 # Test preset (fast)
//	abc-fhe -preset PN16    # the paper's evaluation parameters (slow on CPU)
//	abc-fhe -slots 64       # encode fewer slots
package main

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	abcfhe "repro"
	"repro/internal/core"
	"repro/internal/evalop"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "-h" || args[0] == "--help" || args[0] == "help") {
		fmt.Println("subcommands: demo (default), keygen, evalkeys, encrypt, eval, decrypt, serve")
		fmt.Println("run `abc-fhe <subcommand> -h` for that subcommand's flags")
		return
	}
	var err error
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch cmd := args[0]; cmd {
		case "demo":
			err = runDemo(args[1:])
		case "keygen":
			err = runKeygen(args[1:])
		case "evalkeys":
			err = runEvalKeys(args[1:])
		case "encrypt":
			err = runEncrypt(args[1:])
		case "eval":
			err = runEval(args[1:])
		case "decrypt":
			err = runDecrypt(args[1:])
		case "serve":
			err = runServe(args[1:])
		default:
			err = fmt.Errorf("unknown subcommand %q (try: demo, keygen, evalkeys, encrypt, eval, decrypt, serve)", cmd)
		}
	} else {
		err = runDemo(args)
	}
	if errors.Is(err, flag.ErrHelp) {
		return // `abc-fhe <subcommand> -h` printed usage; that's success
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abc-fhe:", err)
		os.Exit(1)
	}
}

// resolveSeed returns (lo, hi) for a party's 128-bit seed: the flag
// values when the user set either flag (reproducible runs), fresh
// crypto/rand words otherwise — fixed default seeds would hand every
// default keygen the same secret key and every default encrypt the same
// mask stream.
func resolveSeed(fs *flag.FlagSet, lo, hi uint64) (uint64, uint64, error) {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed-lo" || f.Name == "seed-hi" {
			set = true
		}
	})
	if set {
		return lo, hi, nil
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return 0, 0, fmt.Errorf("seeding from crypto/rand: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:8]), binary.LittleEndian.Uint64(buf[8:]), nil
}

// ---------------------------------------------------------------------
// keygen / encrypt / decrypt — the three parties on files
// ---------------------------------------------------------------------

func runKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ContinueOnError)
	preset := fs.String("preset", "Test", "parameter preset: Test, PN13..PN16")
	seedLo := fs.Uint64("seed-lo", 0, "low 64 bits of the key seed (default: crypto/rand)")
	seedHi := fs.Uint64("seed-hi", 0, "high 64 bits of the key seed (default: crypto/rand)")
	pkPath := fs.String("pk", "pk.key", "output path for the public-key blob")
	skPath := fs.String("sk", "sk.key", "output path for the secret-key blob (keep private)")
	workers := fs.Int("workers", 0, "software PNL lanes (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	lo, hi, err := resolveSeed(fs, *seedLo, *seedHi)
	if err != nil {
		return err
	}
	owner, err := abcfhe.NewKeyOwner(abcfhe.Preset(*preset), lo, hi,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	if err != nil {
		return err
	}
	sk, err := owner.ExportSecretKey()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*pkPath, pk, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(*skPath, sk, 0o600); err != nil {
		return err
	}
	fmt.Printf("keygen %s: public key %d bytes -> %s, secret key %d bytes -> %s\n",
		*preset, len(pk), *pkPath, len(sk), *skPath)
	return nil
}

func runEvalKeys(args []string) error {
	fs := flag.NewFlagSet("evalkeys", flag.ContinueOnError)
	skPath := fs.String("sk", "sk.key", "secret-key blob from `abc-fhe keygen`")
	outPath := fs.String("out", "evk.bin", "output path for the evaluation-key blob (ship to the server)")
	maxLevel := fs.Int("max-level", 0, "depth cap for the keys (0 = full depth)")
	rotations := fs.String("rotations", "", "comma-separated rotation steps, e.g. 1,2,4 (innersum over n slots needs 1..n/2 powers of two)")
	conj := fs.Bool("conjugate", false, "also generate the complex-conjugation key")
	dftLevels := fs.Int("dft-levels", 0, "also export the rotation set (and conjugation key) for `eval -op c2s|s2c` with this many butterfly groups per direction (0 = none)")
	workers := fs.Int("workers", 0, "software PNL lanes (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	skBytes, err := os.ReadFile(*skPath)
	if err != nil {
		return err
	}
	owner, err := abcfhe.NewKeyOwnerFromSecretKey(skBytes,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	defer owner.Close()

	var steps []int
	kept := map[int]bool{} // normalized steps actually exported (0 dropped, dups merged)
	addSteps := func(ks []int) {
		for _, k := range ks {
			steps = append(steps, k)
			if n := ((k % owner.Slots()) + owner.Slots()) % owner.Slots(); n != 0 {
				kept[n] = true
			}
		}
	}
	if *rotations != "" {
		for _, f := range strings.Split(*rotations, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("evalkeys: -rotations: %v", err)
			}
			addSteps([]int{k})
		}
	}
	if *dftLevels != 0 {
		logn := 0
		for 1<<(logn+1) <= owner.Slots() {
			logn++
		}
		if *dftLevels < 0 || *dftLevels > logn {
			return fmt.Errorf("evalkeys: -dft-levels %d not in [1, %d]", *dftLevels, logn)
		}
		// The key owner derives the ladder from the stage geometry alone;
		// CoeffsToSlots' real/imaginary split also needs the conjugation key.
		addSteps(abcfhe.HomomorphicDFTRotations(owner.Slots(), *dftLevels))
		*conj = true
	}
	evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{
		MaxLevel:  *maxLevel,
		Rotations: steps,
		Conjugate: *conj,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, evk, 0o644); err != nil {
		return err
	}
	depth := "full depth"
	if *maxLevel > 0 {
		depth = fmt.Sprintf("depth %d", *maxLevel)
	}
	fmt.Printf("evalkeys: relin + %d rotation key(s) at %s, %d bytes -> %s\n",
		len(kept), depth, len(evk), *outPath)
	return nil
}

// runEval is the server role on files, and the CLI driver of the evalop
// table: bootstrap from the evaluation-key blob (no preset flag — the
// spec is embedded), read the row's operands from the files its flags
// name, forward the explicitly-set flags as the row's parameters, run it
// and write the resulting ciphertext(s).
func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	evkPath := fs.String("evk", "evk.bin", "evaluation-key blob from `abc-fhe evalkeys`")
	opName := fs.String("op", "", "operation: "+evalop.Names())
	fs.String("a", "", "first ciphertext file (expand: the compressed upload)")
	fs.String("b", "", "second ciphertext file (mul; the imaginary half for s2c)")
	fs.Int("by", 0, "rotation step (rotate)")
	fs.Int("span", 0, "inner-sum span, a power of two (innersum)")
	fs.String("weights", "", "plaintext weight file, one value per line (dot)")
	fs.String("coeffs", "", "monomial coefficient file, one value per line in degree order (evalpoly)")
	fs.Float64("lo", -1, "approximation interval lower bound (evalpoly)")
	fs.Float64("hi", 1, "approximation interval upper bound (evalpoly)")
	fs.Int("level", 0, "input level the polynomial is compiled at (evalpoly, evalmod; 0 = minimum feasible)")
	fs.Int("degree", 0, "sine-surrogate Taylor degree (evalmod; 0 = 15)")
	fs.Float64("range", 0, "sine-surrogate modulus analogue (evalmod; 0 = 8)")
	fs.Int("dft-levels", 1, "butterfly groups per direction (c2s, s2c) — match `evalkeys -dft-levels`")
	out2Path := fs.String("out2", "ct.out2.bin", "second output ciphertext file (c2s imaginary half)")
	dropLevel := fs.Int("drop-level", 0, "DropLevel the inputs first (0 = keep; use the evalkeys depth)")
	fs.Int("rescale", 0, "Rescale the result n times (a mul consumes 1, or 2 on double-scale presets)")
	outPath := fs.String("out", "ct.out.bin", "output ciphertext file")
	workers := fs.Int("workers", 0, "software PNL lanes (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	op := evalop.Lookup(*opName)
	if op == nil {
		return fmt.Errorf("eval: unknown -op %q (%s)", *opName, evalop.Names())
	}

	// Each operand is the file its like-named flag points at.
	parts := make([][]byte, len(op.Operands))
	flags := make([]string, len(op.Operands))
	for i, o := range op.Operands {
		flags[i] = "-" + o.Name
	}
	for i, o := range op.Operands {
		path := fs.Lookup(o.Name).Value.String()
		if path == "" {
			return fmt.Errorf("eval: -op %s needs %s", op.Name, strings.Join(flags, " and "))
		}
		var err error
		if parts[i], err = os.ReadFile(path); err != nil {
			return err
		}
	}
	// The row's parameters are the flags the user set, under their own
	// names; only -dft-levels travels as `levels`.
	params := url.Values{}
	fs.Visit(func(f *flag.Flag) {
		name := f.Name
		if name == "dft-levels" {
			name = "levels"
		}
		params.Set(name, f.Value.String())
	})

	evkBytes, err := os.ReadFile(*evkPath)
	if err != nil {
		return err
	}
	server, evk, err := abcfhe.NewServerFromEvaluationKeys(evkBytes,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	defer server.Close()
	eng := evalop.NewEngine(server)

	in, err := eng.Decode(op, parts)
	if err != nil {
		return err
	}
	if *dropLevel > 0 {
		for i, ct := range in.Cts {
			if in.Cts[i], err = server.DropLevel(ct, *dropLevel); err != nil {
				return err
			}
		}
	}
	run, err := eng.Compile(op, params, in)
	if err != nil {
		return err
	}
	cts, wire, err := run(evk)
	if err != nil {
		return err
	}
	for i, path := range []string{*outPath, *out2Path}[:len(wire)] {
		if err := os.WriteFile(path, wire[i], 0o644); err != nil {
			return err
		}
		fmt.Printf("eval %s: level-%d ciphertext, %d bytes -> %s\n", op.Name, cts[i].Level, len(wire[i]), path)
	}
	return nil
}

func runEncrypt(args []string) error {
	fs := flag.NewFlagSet("encrypt", flag.ContinueOnError)
	pkPath := fs.String("pk", "pk.key", "public-key blob from `abc-fhe keygen`")
	inPath := fs.String("in", "", "message file (one complex value per line: \"re\" or \"re im\")")
	outPath := fs.String("out", "ct.bin", "output path for the ciphertext")
	seedLo := fs.Uint64("seed-lo", 0, "low 64 bits of this device's randomness seed (default: crypto/rand)")
	seedHi := fs.Uint64("seed-hi", 0, "high 64 bits of this device's randomness seed (default: crypto/rand)")
	workers := fs.Int("workers", 0, "software PNL lanes (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("encrypt: -in message file required")
	}

	pkBytes, err := os.ReadFile(*pkPath)
	if err != nil {
		return err
	}
	// A fresh random seed per process unless pinned: each invocation
	// restarts the stream counter at 0, so a reused seed would reuse
	// mask/error streams across uploads.
	lo, hi, err := resolveSeed(fs, *seedLo, *seedHi)
	if err != nil {
		return err
	}
	// The device role: built from public-key bytes alone.
	enc, err := abcfhe.NewEncryptor(pkBytes, lo, hi,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	defer enc.Close()

	msg, err := readMessageFile(*inPath)
	if err != nil {
		return err
	}
	ct, err := enc.EncodeEncrypt(msg)
	if err != nil {
		return err
	}
	data, err := enc.SerializeCiphertext(ct)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("encrypt: %d values -> depth-%d ciphertext, %d bytes -> %s\n",
		len(msg), ct.Level, len(data), *outPath)
	return nil
}

func runDecrypt(args []string) error {
	fs := flag.NewFlagSet("decrypt", flag.ContinueOnError)
	skPath := fs.String("sk", "sk.key", "secret-key blob from `abc-fhe keygen`")
	inPath := fs.String("in", "ct.bin", "ciphertext file")
	outPath := fs.String("out", "", "output message file (default: print to stdout)")
	n := fs.Int("n", 0, "slots to emit (0 = all)")
	expect := fs.String("expect", "", "message file to verify the decryption against")
	tol := fs.Float64("tol", 1e-4, "max |error| allowed with -expect")
	workers := fs.Int("workers", 0, "software PNL lanes (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	skBytes, err := os.ReadFile(*skPath)
	if err != nil {
		return err
	}
	owner, err := abcfhe.NewKeyOwnerFromSecretKey(skBytes,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	defer owner.Close()

	data, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	ct, err := owner.DeserializeCiphertext(data)
	if err != nil {
		return err
	}
	slots, err := owner.DecryptDecode(ct)
	if err != nil {
		return err
	}
	// -expect verifies against the full decryption; -n only trims output.
	if *expect != "" {
		want, err := readMessageFile(*expect)
		if err != nil {
			return err
		}
		if len(want) > len(slots) {
			return fmt.Errorf("decrypt: -expect has %d values, only %d slots", len(want), len(slots))
		}
		var worst float64
		for i := range want {
			if e := cmplx.Abs(slots[i] - want[i]); e > worst {
				worst = e
			}
		}
		if worst > *tol {
			return fmt.Errorf("decrypt: verification failed: max error %g > tol %g", worst, *tol)
		}
		fmt.Printf("decrypt: verified %d values, max error %.3g (tol %g)\n", len(want), worst, *tol)
		if *outPath == "" {
			return nil
		}
	}
	if *n > 0 && *n < len(slots) {
		slots = slots[:*n]
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	for _, z := range slots {
		fmt.Fprintf(w, "%.17g %.17g\n", real(z), imag(z))
	}
	return w.Flush()
}

// readMessageFile reads a message file: one complex value per line, "re"
// or "re im" (evalop.ParseComplexLines has the grammar).
func readMessageFile(path string) ([]complex128, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	msg, err := evalop.ParseComplexLines(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return msg, nil
}

// ---------------------------------------------------------------------
// demo — the original side-by-side card, on the role types
// ---------------------------------------------------------------------

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	preset := fs.String("preset", "Test", "parameter preset: Test, PN13..PN16")
	slots := fs.Int("slots", 0, "message slots to fill (0 = all)")
	workers := fs.Int("workers", 0, "software PNL lanes (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The three parties, wired through exported bytes as if on three
	// machines: the owner exports a public key, a device encrypts with it,
	// the server evaluates keylessly, the owner decrypts.
	owner, err := abcfhe.NewKeyOwner(abcfhe.Preset(*preset), 0x0123456789ABCDEF, 0xFEDCBA9876543210,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	pkBytes, err := owner.ExportPublicKey()
	if err != nil {
		return err
	}
	device, err := abcfhe.NewEncryptor(pkBytes, 0xD0D0CACA, 0xBEBACAFE,
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}
	server, err := abcfhe.NewServer(abcfhe.Preset(*preset),
		abcfhe.WithWorkers(*workers))
	if err != nil {
		return err
	}

	n := *slots
	if n <= 0 || n > device.Slots() {
		n = device.Slots()
	}
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(math.Sin(float64(i)/7), math.Cos(float64(i)/11)) / 2
	}

	fmt.Printf("ABC-FHE client workflow — preset %s (slots=%d, depth=%d limbs)\n\n",
		*preset, device.Slots(), device.MaxLevel())

	start := time.Now()
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		return err
	}
	encDur := time.Since(start)

	low, err := server.DropLevel(ct, 2) // server returns the 2-limb state
	if err != nil {
		return err
	}

	start = time.Now()
	got, err := owner.DecryptDecode(low)
	if err != nil {
		return err
	}
	decDur := time.Since(start)

	var maxErr float64
	for i := range msg {
		if e := cmplx.Abs(got[i] - msg[i]); e > maxErr {
			maxErr = e
		}
	}

	fmt.Println("functional (this machine, pure Go, three parties over exported bytes):")
	fmt.Printf("  encode+encrypt: %v\n", encDur)
	fmt.Printf("  decrypt+decode: %v  (2-limb ciphertext)\n", decDur)
	fmt.Printf("  round-trip max error: %.3g (%.1f bits of precision)\n\n",
		maxErr, -math.Log2(maxErr))

	s := core.Default().Summarize()
	fmt.Println("modeled accelerator (paper configuration: N=2^16, 2 RSC x 4 PNL x 8 lanes):")
	fmt.Printf("  encode+encrypt: %.4f ms    decode+decrypt: %.4f ms\n", s.EncMS, s.DecMS)
	fmt.Printf("  throughput: %.0f ciphertexts/s\n", s.ThroughputCtS)
	fmt.Printf("  area: %.3f mm² @28nm (%.3f mm² @7nm)\n", s.AreaMM2, s.Area7nmMM2)
	fmt.Printf("  power: %.3f W @28nm (%.3f W @7nm)\n", s.PowerW, s.Power7nmW)
	fmt.Printf("  client op counts: enc %.1f MOPs, dec %.1f MOPs\n", s.EncMOPs, s.DecMOPs)
	return nil
}
