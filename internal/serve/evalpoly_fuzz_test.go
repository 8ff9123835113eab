package serve

// Hostile-input hardening for the polynomial-evaluation endpoints: the
// coefficient vector arrives as attacker-controlled text and the
// interval/degree/range/scaling knobs as attacker-controlled query
// strings, all parsed on the HTTP goroutine. The contract is errors
// only — no panics anywhere in decode → compile — and every compilation
// the surface accepts must actually run to a serialized result with
// full-depth keys (on the Test preset an accepted plan's KeyLevel is
// always covered, so a run failure would mean the compile-time
// validation let an inconsistent plan through).

import (
	"net/url"
	"sync"
	"testing"

	abcfhe "repro"
	"repro/internal/evalop"
)

type fuzzEvalEnv struct {
	sp     *specServer
	keys   *abcfhe.EvaluationKeys
	ctBlob []byte
}

var (
	fuzzEnvOnce sync.Once
	fuzzEnv     fuzzEvalEnv
)

// evalPolyFuzzEnv builds one shared Test-preset pipeline (keygen is far
// too slow per fuzz iteration).
func evalPolyFuzzEnv(t testing.TB) fuzzEvalEnv {
	t.Helper()
	fuzzEnvOnce.Do(func() {
		owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 0xF022, 0xF023)
		if err != nil {
			t.Fatal(err)
		}
		evkBlob, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv, keys, err := abcfhe.NewServerFromEvaluationKeys(evkBlob)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := newSpecServer(srv)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := owner.ExportPublicKey()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := abcfhe.NewEncryptor(pk, 0xF024, 0xF025)
		if err != nil {
			t.Fatal(err)
		}
		defer enc.Close()
		ct, err := enc.EncodeEncrypt([]complex128{0.5, -0.25})
		if err != nil {
			t.Fatal(err)
		}
		ctBlob, err := enc.SerializeCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		fuzzEnv = fuzzEvalEnv{sp: sp, keys: keys, ctBlob: ctBlob}
	})
	return fuzzEnv
}

// tryEvalPolyRequest drives one fuzzed request through the same table
// row, decode → compile → run, the HTTP handler uses.
func tryEvalPolyRequest(t *testing.T, env fuzzEvalEnv, name string, q url.Values, parts [][]byte) {
	t.Helper()
	op := evalop.Lookup(name)
	in, err := env.sp.eng.Decode(op, parts)
	if err != nil {
		return // rejected at parse time: exactly the contract
	}
	run, err := env.sp.eng.Compile(op, q, in)
	if err != nil {
		return // rejected at compile time: likewise
	}
	_, out, err := run(env.keys)
	if err != nil {
		t.Fatalf("%s: accepted compilation failed at run time: %v", name, err)
	}
	if len(out) != 1 || len(out[0]) == 0 {
		t.Fatalf("%s: accepted compilation returned %d parts", name, len(out))
	}
}

func FuzzEvalPolyCoeffs(f *testing.F) {
	env := evalPolyFuzzEnv(f)
	// Seeds: a valid degree-1 request, then hostile shapes — non-numeric
	// and non-finite text, a degree far beyond the cap, comment/blank
	// noise, binary junk, and query values that stress every knob.
	f.Add([]byte("0.5\n0.25 -0.125\n"), "-1", "1", "0", "1", "8", "")
	f.Add([]byte("0.5\nNaN\n"), "-1", "1", "0", "1", "8", "")
	f.Add([]byte("1e309\n1\n"), "-1", "1", "0", "2", "0.0000001", "")
	f.Add([]byte("# only comments\n\n"), "NaN", "Inf", "-7", "64", "NaN", "1e308")
	f.Add([]byte("0\n0\n0\n1\n"), "1", "-1", "99", "-1", "2097152", "Inf")
	f.Add([]byte{0x00, 0xFF, 0x80, 0x7F}, "", "", "", "", "", "")
	bigDeg := make([]byte, 0, 4096)
	for i := 0; i < 2048; i++ {
		bigDeg = append(bigDeg, "1\n"...)
	}
	f.Add(bigDeg, "-1048577", "1048577", "1", "16", "8", "0")
	f.Fuzz(func(t *testing.T, coeffs []byte, lo, hi, level, degree, rng, scaling string) {
		polyQ := url.Values{"lo": {lo}, "hi": {hi}, "level": {level}}
		tryEvalPolyRequest(t, env, "evalpoly", polyQ, [][]byte{env.ctBlob, coeffs})
		modQ := url.Values{"degree": {degree}, "range": {rng}, "scaling": {scaling}, "level": {level}}
		tryEvalPolyRequest(t, env, "evalmod", modQ, [][]byte{env.ctBlob})
	})
}

// TestEvalPolyRequestHardening is the deterministic slice of
// FuzzEvalPolyCoeffs that runs on every push: the seed corpus shapes
// driven straight through the decode/compile/run path.
func TestEvalPolyRequestHardening(t *testing.T) {
	env := evalPolyFuzzEnv(t)
	cases := []struct {
		coeffs                              string
		lo, hi, level, degree, rng, scaling string
	}{
		{"0.5\n0.25 -0.125\n", "-1", "1", "0", "1", "8", ""},
		{"0.5\nNaN\n", "-1", "1", "0", "1", "8", ""},
		{"1e309\n1\n", "-1", "1", "0", "2", "0.0000001", ""},
		{"# only comments\n\n", "NaN", "Inf", "-7", "64", "NaN", "1e308"},
		{"0\n0\n0\n1\n", "1", "-1", "99", "-1", "2097152", "Inf"},
		{"\x00\xff\x80\x7f", "", "", "", "", "", ""},
		{"0.25\n0.75\n", "0.5", "0.5000001", "4", "1", "0.0000000001", "-0"},
	}
	for _, tc := range cases {
		polyQ := url.Values{"lo": {tc.lo}, "hi": {tc.hi}, "level": {tc.level}}
		tryEvalPolyRequest(t, env, "evalpoly", polyQ, [][]byte{env.ctBlob, []byte(tc.coeffs)})
		modQ := url.Values{"degree": {tc.degree}, "range": {tc.rng}, "scaling": {tc.scaling}, "level": {tc.level}}
		tryEvalPolyRequest(t, env, "evalmod", modQ, [][]byte{env.ctBlob})
	}
}
