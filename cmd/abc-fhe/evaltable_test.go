package main

// The evalop table has two drivers — `abc-fhe eval` on files and
// internal/serve's POST /v1/eval/{op} on frame parts — and one reference,
// the Server methods the rows call. This test pins all three to the same
// bytes for every row of the table, and fails when a row has no case, so
// a new op cannot land wired to one front end only. It lives here because
// runEval is package main; internal/serve's own byte-identity test keeps
// the HTTP ≡ direct leg for its package.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	abcfhe "repro"
	"repro/internal/evalop"
	"repro/internal/serve"
)

func TestEvalTableEquivalence(t *testing.T) {
	dir := t.TempDir()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 11, 22)
	must(err)
	defer owner.Close()
	pk, err := owner.ExportPublicKey()
	must(err)
	steps := append(abcfhe.InnerSumRotations(4), 3)
	steps = append(steps, abcfhe.HomomorphicDFTRotations(owner.Slots(), 1)...)
	evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{Rotations: steps, Conjugate: true})
	must(err)
	evkPath := filepath.Join(dir, "evk.bin")
	must(os.WriteFile(evkPath, evk, 0o644))

	direct, keys, err := abcfhe.NewServerFromEvaluationKeys(evk)
	must(err)
	defer direct.Close()
	enc, err := abcfhe.NewEncryptor(pk, 33, 44)
	must(err)
	defer enc.Close()
	msg := make([]complex128, enc.Slots())
	for i := range msg {
		msg[i] = complex(float64(i%17)/17-0.5, float64(i%13)/13-0.5)
	}
	a, err := enc.EncodeEncrypt(msg)
	must(err)
	b, err := enc.EncodeEncrypt(msg[1:])
	must(err)
	wire := func(cts ...*abcfhe.Ciphertext) [][]byte {
		t.Helper()
		out := make([][]byte, len(cts))
		for i, ct := range cts {
			out[i], err = direct.SerializeCiphertext(ct)
			must(err)
		}
		return out
	}
	one := func(ct *abcfhe.Ciphertext, err error) [][]byte {
		t.Helper()
		must(err)
		return wire(ct)
	}
	rescaled := func(ct *abcfhe.Ciphertext, err error) *abcfhe.Ciphertext {
		t.Helper()
		must(err)
		ct, err = direct.Rescale(ct)
		must(err)
		return ct
	}
	aw, bw := wire(a)[0], wire(b)[0]
	seeded, err := owner.EncodeEncryptCompressed(msg)
	must(err)

	dft, err := direct.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: a.Level(), Levels: 1})
	must(err)
	re, im, err := direct.CoeffsToSlots(a, dft, keys)
	must(err)
	pe, err := direct.NewPolyEval([]complex128{0.5, complex(0.25, -0.125)}, -1, 1, 0)
	must(err) // degree 1 is the ladder the Test preset's 4 limbs admit
	em, err := direct.NewEvalMod(abcfhe.EvalModConfig{Degree: 1, Range: 8})
	must(err)

	// One case per row (c2s twice: `rescale` must reach both outputs).
	// params are spelled as the table spells them; the CLI leg passes each
	// as its flag, -dft-levels being the one that is named differently.
	cases := []struct {
		op       string
		params   url.Values
		operands [][]byte
		want     [][]byte // the direct Server call
	}{
		{"mul", url.Values{"rescale": {"1"}}, [][]byte{aw, bw}, wire(rescaled(direct.Mul(a, b, keys)))},
		{"rotate", url.Values{"by": {"3"}}, [][]byte{aw}, one(direct.Rotate(a, 3, keys))},
		{"conjugate", nil, [][]byte{bw}, one(direct.Conjugate(b, keys))},
		{"innersum", url.Values{"span": {"4"}}, [][]byte{aw}, one(direct.InnerSum(a, 4, keys))},
		{"dot", nil, [][]byte{aw, []byte("0.25\n0.5 -0.125\n-1 0.75\n")},
			one(direct.DotPlain(a, []complex128{0.25, complex(0.5, -0.125), complex(-1, 0.75)}, keys))},
		{"c2s", url.Values{"levels": {"1"}}, [][]byte{aw}, wire(re, im)},
		{"c2s", url.Values{"levels": {"1"}, "rescale": {"1"}}, [][]byte{aw},
			wire(rescaled(re, nil), rescaled(im, nil))},
		{"s2c", url.Values{"levels": {"1"}}, wire(re, im), one(direct.SlotsToCoeffs(re, im, dft, keys))},
		{"evalpoly", url.Values{"lo": {"-1"}, "hi": {"1"}}, [][]byte{aw, []byte("0.5\n0.25 -0.125\n")},
			one(direct.EvalPoly(a, pe, keys))},
		{"evalmod", url.Values{"degree": {"1"}, "range": {"8"}}, [][]byte{bw}, one(direct.EvalMod(b, em, keys))},
		{"expand", nil, [][]byte{seeded}, one(direct.ExpandCompressedUpload(seeded))},
	}

	svc, err := serve.New(serve.Config{CacheBytes: 4 * int64(len(evk)), MaxInflight: 4, Workers: 1})
	must(err)
	ts := httptest.NewServer(svc)
	defer func() {
		ts.Close()
		svc.Close()
	}()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/octet-stream", bytes.NewReader(evk))
	must(err)
	var session struct{ Session string }
	must(json.NewDecoder(resp.Body).Decode(&session))
	resp.Body.Close()
	post := func(op string, params url.Values, operands ...[]byte) (int, []byte) {
		t.Helper()
		q := url.Values{"session": {session.Session}}
		for k, v := range params {
			q[k] = v
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/eval/"+op+"?"+q.Encode(), serve.ContentTypeFrames,
			bytes.NewReader(serve.EncodeFrames(operands...)))
		must(err)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		must(err)
		return resp.StatusCode, body
	}

	covered := map[string]bool{}
	for i, tc := range cases {
		covered[tc.op] = true
		row := evalop.Lookup(tc.op)
		if row == nil {
			t.Fatalf("case %d: %q is not in the table", i, tc.op)
		}

		status, body := post(tc.op, tc.params, tc.operands...)
		if status != http.StatusOK {
			t.Fatalf("%s %v: HTTP %d: %s", tc.op, tc.params, status, body)
		}
		got, err := serve.ReadFrames(bytes.NewReader(body), 2, int64(len(body)))
		must(err)
		if len(got) != len(tc.want) {
			t.Fatalf("%s %v: HTTP returned %d parts, want %d", tc.op, tc.params, len(got), len(tc.want))
		}

		outs := []string{filepath.Join(dir, "out.bin"), filepath.Join(dir, "out2.bin")}
		args := []string{"-evk", evkPath, "-op", tc.op, "-out", outs[0], "-out2", outs[1]}
		for j, o := range row.Operands {
			path := filepath.Join(dir, "operand-"+o.Name)
			must(os.WriteFile(path, tc.operands[j], 0o644))
			args = append(args, "-"+o.Name, path)
		}
		for name, v := range tc.params {
			if name == "levels" {
				name = "dft-levels"
			}
			args = append(args, "-"+name, v[0])
		}
		if err := runEval(args); err != nil {
			t.Fatalf("runEval %v: %v", args, err)
		}

		for j, want := range tc.want {
			if !bytes.Equal(got[j], want) {
				t.Errorf("%s %v: HTTP part %d differs from the direct Server call", tc.op, tc.params, j)
			}
			file, err := os.ReadFile(outs[j])
			must(err)
			if !bytes.Equal(file, want) {
				t.Errorf("%s %v: CLI output %d differs from the direct Server call", tc.op, tc.params, j)
			}
		}
	}
	for _, row := range evalop.All() {
		if !covered[row.Name] {
			t.Errorf("table row %q has no equivalence case", row.Name)
		}
	}

	// What the shared seam makes reachable on both front ends.
	base := []string{"-evk", evkPath, "-a", filepath.Join(dir, "operand-a"), "-out", filepath.Join(dir, "never.bin")}
	must(os.WriteFile(filepath.Join(dir, "operand-a"), aw, 0o644))
	err = runEval(append([]string{"-op", "mul"}, base...))
	if err == nil || !strings.Contains(err.Error(), "mul") || !strings.Contains(err.Error(), "-a and -b") {
		t.Errorf("mul without -b: %v, want an arity error naming the op and both flags", err)
	}
	if err := runEval(append([]string{"-op", "rotate", "-rescale", "-1"}, base...)); !errors.Is(err, abcfhe.ErrLevelOutOfRange) {
		t.Errorf("-rescale -1: %v, want ErrLevelOutOfRange", err)
	}
	if status, body := post("rotate", url.Values{"rescale": {"99"}}, aw); status != http.StatusUnprocessableEntity {
		t.Errorf("rescale=99: HTTP %d (%s), want 422", status, body)
	}
	err = runEval(append([]string{"-op", "frobnicate"}, base...))
	if err == nil || !strings.Contains(err.Error(), evalop.Names()) {
		t.Errorf("CLI unknown op: %v, want the table's names", err)
	}
	if status, body := post("frobnicate", nil, aw); status != http.StatusBadRequest || !strings.Contains(string(body), evalop.Names()) {
		t.Errorf("HTTP unknown op: %d %s, want 400 listing the table's names", status, body)
	}
}
