package serve

// End-to-end hostile-request hardening of POST /v1/eval/{op}: frames
// whose parts are structurally valid wire ciphertexts — real residues
// under a legal header — but whose level, scale, domain, operand pairing
// and query knobs are attacker-chosen, driven through the real handler
// (evalop.Lookup → Decode → Compile → dispatcher → run) of a service
// whose session keys stop one level short of the parameter depth. The
// scheme layer panics on states it considers impossible (a level above
// the switching key's depth, an NTT-domain key-switch input) and
// dispatcher.runOne turns a panic into a 500; the public Server role is
// supposed to have rejected every such request with a typed error first.
// Property: the answer is 200 or a 4xx, never a 500, and
// abcfhe_serve_panics_total stays 0.

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	abcfhe "repro"
	"repro/internal/evalop"
)

// Header offsets of the shared ciphertext wire format (ckks/serialize.go):
// magic[4] version enc logN level | scale f64 | domain.
const (
	wireLevelOff  = 7
	wireScaleOff  = 8
	wireDomainOff = 16
)

type serveFuzzEnv struct {
	svc     *Service
	session string
	cts     [][]byte // cts[l-1]: one encryption dropped to level l, serialized
	seeded  []byte   // a compressed upload (expand's Raw operand)
}

var (
	serveFuzzOnce sync.Once
	serveFuzz     serveFuzzEnv
)

// keyDepth is the session's evaluation-key depth; the Test preset has
// four levels, so level 4 sits above it.
const keyDepth = 3

// serveFuzzService builds one shared Test-preset service with a
// registered session (keygen is far too slow per fuzz iteration). It
// lives for the whole test process.
func serveFuzzService(t testing.TB) serveFuzzEnv {
	t.Helper()
	serveFuzzOnce.Do(func() {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		owner, err := abcfhe.NewKeyOwner(abcfhe.Test, 0xF5E1, 0xF5E2)
		must(err)
		defer owner.Close()
		steps := append(abcfhe.InnerSumRotations(4), 3)
		steps = append(steps, abcfhe.HomomorphicDFTRotations(owner.Slots(), 1)...)
		evk, err := owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{MaxLevel: keyDepth, Rotations: steps, Conjugate: true})
		must(err)
		svc, err := New(Config{})
		must(err)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(evk)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register: HTTP %d: %s", rec.Code, rec.Body)
		}
		svc.mu.Lock()
		for id := range svc.sessions {
			serveFuzz.session = id
		}
		srv := svc.sessions[serveFuzz.session].sp.srv
		svc.mu.Unlock()

		pk, err := owner.ExportPublicKey()
		must(err)
		enc, err := abcfhe.NewEncryptor(pk, 0xF5E3, 0xF5E4)
		must(err)
		defer enc.Close()
		ct, err := enc.EncodeEncrypt([]complex128{0.5, -0.25, complex(0.125, 0.375)})
		must(err)
		for level := 1; level <= srv.MaxLevel(); level++ {
			low, err := srv.DropLevel(ct, level)
			must(err)
			blob, err := srv.SerializeCiphertext(low)
			must(err)
			serveFuzz.cts = append(serveFuzz.cts, blob)
		}
		serveFuzz.seeded, err = owner.EncodeEncryptCompressed([]complex128{0.5, -0.25})
		must(err)
		serveFuzz.svc = svc
	})
	return serveFuzz
}

// hostileHeader returns blob with the attacker's scale and domain written
// over a copy of its header, and — when hdrLevel is non-zero — a level
// byte that no longer matches the payload.
func hostileHeader(blob []byte, scaleBits uint64, domain, hdrLevel uint8) []byte {
	out := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(out[wireScaleOff:], scaleBits)
	out[wireDomainOff] = domain
	if hdrLevel != 0 {
		out[wireLevelOff] = hdrLevel
	}
	return out
}

func FuzzServeEval(f *testing.F) {
	env := serveFuzzService(f)
	ops := evalop.All()
	delta := binary.LittleEndian.Uint64(env.cts[0][wireScaleOff:]) // the preset's own scale
	// Seeds, for every row of the table: requests the keys cover (levels
	// 1..3; c2s from its start level 3; the polynomial rows at their only
	// legal input level 4, whose products run at key level 3), a level
	// above the key depth, a mismatched pair, the NTT-domain flag — then a
	// lying level byte and hostile scales (0, NaN, 2^1000) and knobs.
	for op := range ops {
		f.Add(uint8(op), uint8(2), uint8(2), delta, delta, uint8(0), uint8(0), int16(1), uint8(8+3), int8(0))
		f.Add(uint8(op), uint8(4), uint8(4), delta, delta, uint8(0), uint8(0), int16(0), uint8(0), int8(1))
		f.Add(uint8(op), uint8(2), uint8(1), delta, delta+1, uint8(0), uint8(0), int16(-7), uint8(0), int8(0))
		f.Add(uint8(op), uint8(2), uint8(2), delta, delta, uint8(1), uint8(0), int16(2), uint8(0), int8(0))
	}
	f.Add(uint8(5), uint8(3), uint8(3), delta, delta, uint8(0), uint8(0), int16(0), uint8(8+3), int8(1)) // c2s runs
	f.Add(uint8(8), uint8(4), uint8(4), delta, delta, uint8(0), uint8(0), int16(1), uint8(0), int8(0))   // evalmod runs
	f.Add(uint8(0), uint8(1), uint8(1), delta, delta, uint8(0), uint8(4), int16(0), uint8(0), int8(0))
	f.Add(uint8(1), uint8(2), uint8(2), uint64(0), uint64(0x7FF8000000000001), uint8(2), uint8(0), int16(511), uint8(255), int8(-1))
	f.Add(uint8(5), uint8(2), uint8(2), uint64(0x7E70000000000000), delta, uint8(0), uint8(0), int16(-32768), uint8(7), int8(99))

	f.Fuzz(func(t *testing.T, opIdx, levelA, levelB uint8, scaleA, scaleB uint64, domain, hdrLevel uint8, knob int16, dft uint8, rescale int8) {
		op := ops[int(opIdx)%len(ops)]
		ctAt := func(level uint8) []byte { return env.cts[(int(level)+len(env.cts)-1)%len(env.cts)] }
		a := hostileHeader(ctAt(levelA), scaleA, domain, hdrLevel)
		b := hostileHeader(ctAt(levelB), scaleB, domain, 0)
		var parts [][]byte
		for i, o := range op.Operands {
			switch {
			case o.Kind == evalop.Values:
				parts = append(parts, []byte("0.5\n0.25 -0.125\n"))
			case o.Kind == evalop.Raw:
				parts = append(parts, hostileHeader(env.seeded, scaleA, domain, hdrLevel))
			case i == 0:
				parts = append(parts, a)
			default:
				parts = append(parts, b)
			}
		}
		// One knob feeds the scalar parameters; dft packs the level-valued
		// ones (DFT start level, butterfly levels, the polynomial rows'
		// input level). Zero leaves a parameter at its default.
		q := url.Values{"session": {env.session}}
		set := func(v int, names ...string) {
			for _, name := range names {
				if v != 0 {
					q.Set(name, strconv.Itoa(v))
				}
			}
		}
		set(int(knob), "by", "span", "degree")
		set(int(dft%8), "start")
		set(int(dft/8%4), "levels")
		set(int(dft/32), "level")
		set(int(rescale), "rescale")

		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/eval/"+op.Name+"?"+q.Encode(), bytes.NewReader(EncodeFrames(parts...)))
		env.svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("%s: HTTP %d: %s", op.Name, rec.Code, rec.Body)
		}
		if n := env.svc.m.panics.Load(); n != 0 {
			t.Fatalf("%s: abcfhe_serve_panics_total = %d", op.Name, n)
		}
	})
}
