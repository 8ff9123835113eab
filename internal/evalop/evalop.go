// Package evalop is the Server role's encrypted-compute surface as one
// table: each row names an operation, declares the operands it takes and
// whether it needs evaluation keys, and compiles a request into a run
// against a key set. Everything the rows share — operand decoding, typed
// parameter parsing, the memoized homomorphic-DFT lookup, the `rescale`
// post-step and result serialization — lives here once. The front ends
// (`abc-fhe eval` on files, internal/serve's POST /v1/eval/{op} on frame
// parts) only move bytes in and out: they look a row up by name, hand its
// operands to Decode and its parameters to Compile, and call the Run.
package evalop

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	abcfhe "repro"
)

// Kind says how an operand's bytes are decoded.
type Kind int

const (
	// Ct is a wire ciphertext.
	Ct Kind = iota
	// Values is the message-file text format (see ParseComplexLines).
	Values
	// Raw bytes reach the row undecoded (a compressed upload).
	Raw
)

// Operand is one input of a row. Over HTTP the operands are the frame
// parts, in order; on the CLI each is the file named by the flag -Name.
type Operand struct {
	Name string
	Kind Kind
}

// Op is one row of the table.
type Op struct {
	Name      string
	Operands  []Operand
	NeedsKeys bool

	compile func(e *Engine, p *params, in *Inputs) (compute, error)
}

// Inputs are a row's decoded operands: the ciphertexts in operand order,
// and the row's Values or Raw operand if it declares one.
type Inputs struct {
	Cts    []*abcfhe.Ciphertext
	Values []complex128
	Raw    []byte
}

// compute is a row's key-gated work; Run wraps it with the shared
// post-steps.
type compute func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error)

// Run executes a compiled request against the caller's evaluation keys
// (nil for rows with NeedsKeys false) and returns the outputs with their
// wire encodings, index-aligned.
type Run func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, [][]byte, error)

var (
	unary  = []Operand{{"a", Ct}}
	binary = []Operand{{"a", Ct}, {"b", Ct}}
)

var table = []*Op{
	{Name: "mul", Operands: binary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.Mul(in.Cts[0], in.Cts[1], evk))
			}, nil
		}},
	{Name: "rotate", Operands: unary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			by := p.int("by", 0)
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.Rotate(in.Cts[0], by, evk))
			}, nil
		}},
	{Name: "conjugate", Operands: unary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.Conjugate(in.Cts[0], evk))
			}, nil
		}},
	{Name: "innersum", Operands: unary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			span := p.int("span", 0)
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.InnerSum(in.Cts[0], span, evk))
			}, nil
		}},
	{Name: "dot", Operands: []Operand{{"a", Ct}, {"weights", Values}}, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.DotPlain(in.Cts[0], in.Values, evk))
			}, nil
		}},
	// c2s consumes the input at its current level unless `start` says
	// otherwise and emits the real and imaginary coefficient halves.
	{Name: "c2s", Operands: unary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			levels, start := p.int("levels", 1), p.int("start", in.Cts[0].Level())
			if p.err != nil {
				return nil, p.err
			}
			dft, err := e.dft(start, levels)
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				re, im, err := e.srv.CoeffsToSlots(in.Cts[0], dft, evk)
				return []*abcfhe.Ciphertext{re, im}, err
			}, err
		}},
	// s2c takes the c2s pair back; the pair sits at its DFT's midpoint,
	// which is how the schedule is recovered from the inputs.
	{Name: "s2c", Operands: binary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			levels := p.int("levels", 1)
			if p.err != nil {
				return nil, p.err
			}
			dft, err := e.dftAtMid(in.Cts[0].Level(), levels)
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.SlotsToCoeffs(in.Cts[0], in.Cts[1], dft, evk))
			}, err
		}},
	// Polynomial compilation is plain coefficient arithmetic (no keys, no
	// NTT) — cheap enough to run per request, and it surfaces every
	// misuse before the request is queued.
	{Name: "evalpoly", Operands: []Operand{{"a", Ct}, {"coeffs", Values}}, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			pe, err := e.srv.NewPolyEval(in.Values, p.float("lo", -1), p.float("hi", 1), p.int("level", 0))
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.EvalPoly(in.Cts[0], pe, evk))
			}, err
		}},
	{Name: "evalmod", Operands: unary, NeedsKeys: true,
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			em, err := e.srv.NewEvalMod(abcfhe.EvalModConfig{Degree: p.int("degree", 0), Range: p.float("range", 0),
				Scaling: p.float("scaling", 0), Level: p.int("level", 0)})
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.EvalMod(in.Cts[0], em, evk))
			}, err
		}},
	{Name: "expand", Operands: []Operand{{"a", Raw}},
		compile: func(e *Engine, p *params, in *Inputs) (compute, error) {
			return func(*abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(e.srv.ExpandCompressedUpload(in.Raw))
			}, nil
		}},
}

// All returns the table's rows.
func All() []*Op { return table }

// Lookup returns the row called name, or nil.
func Lookup(name string) *Op {
	for _, op := range table {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// Names renders the table's op names, sorted and comma-separated — the
// one op list every usage string and unknown-op error prints.
func Names() string {
	names := make([]string, len(table))
	for i, op := range table {
		names[i] = op.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func one(ct *abcfhe.Ciphertext, err error) ([]*abcfhe.Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return []*abcfhe.Ciphertext{ct}, nil
}

// params reads typed request parameters and keeps the first failure, so
// a row reads its knobs as straight-line code and Compile reports the
// error once (ahead of any error the row's plan construction returned
// for the placeholder value). Rows whose plan is memoized check err
// before building it.
type params struct {
	q   url.Values
	err error
}

func (p *params) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *params) int(name string, def int) int {
	s := p.q.Get(name)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		p.fail(fmt.Errorf("%w: query param %s=%q is not an integer", abcfhe.ErrInvalidConstant, name, s))
		return def
	}
	return v
}

func (p *params) float(name string, def float64) float64 {
	s := p.q.Get(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.fail(fmt.Errorf("%w: query param %s=%q is not a number", abcfhe.ErrInvalidConstant, name, s))
		return def
	}
	return v
}

// Engine evaluates rows on one Server. It is safe for concurrent use:
// the Server is stateless per op and the DFT memo is locked.
type Engine struct {
	srv *abcfhe.Server

	mu   sync.Mutex
	dfts map[[2]int]*abcfhe.HomomorphicDFT // keyed by {start level, butterfly levels}
}

// NewEngine wraps srv; the caller keeps ownership of it.
func NewEngine(srv *abcfhe.Server) *Engine {
	return &Engine{srv: srv, dfts: make(map[[2]int]*abcfhe.HomomorphicDFT)}
}

// dft returns the memoized CoeffsToSlots/SlotsToCoeffs pipeline for a
// (start level, butterfly levels) schedule; building one pre-encodes
// 2·levels linear transforms, so it is far too expensive per request.
func (e *Engine) dft(start, levels int) (*abcfhe.HomomorphicDFT, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := [2]int{start, levels}
	if d, ok := e.dfts[k]; ok {
		return d, nil
	}
	d, err := e.srv.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: start, Levels: levels})
	if err != nil {
		return nil, err
	}
	e.dfts[k] = d
	return d, nil
}

// dftAtMid finds the schedule whose midpoint sits at the given level.
// MidLevel falls monotonically as StartLevel does, so at most a couple
// of candidates are built (then memoized).
func (e *Engine) dftAtMid(mid, levels int) (*abcfhe.HomomorphicDFT, error) {
	for start := mid + levels; start <= e.srv.MaxLevel(); start++ {
		d, err := e.dft(start, levels)
		if err != nil {
			continue // start too shallow for this schedule; keep climbing
		}
		if d.MidLevel() == mid {
			return d, nil
		}
		if d.MidLevel() > mid {
			break
		}
	}
	return nil, fmt.Errorf("%w: no %d-level DFT has its midpoint at level %d",
		abcfhe.ErrLevelOutOfRange, levels, mid)
}

// Decode turns a row's operand bytes (exactly len(op.Operands) parts, in
// operand order) into Inputs.
func (e *Engine) Decode(op *Op, parts [][]byte) (*Inputs, error) {
	in := &Inputs{}
	for i, o := range op.Operands {
		var err error
		switch o.Kind {
		case Ct:
			var ct *abcfhe.Ciphertext
			ct, err = e.srv.DeserializeCiphertext(parts[i])
			in.Cts = append(in.Cts, ct)
		case Values:
			in.Values, err = ParseComplexLines(parts[i])
		case Raw:
			in.Raw = parts[i]
		}
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Compile parses the row's parameters out of q (names a row does not
// read are ignored) and builds whatever plan it needs — everything that
// can be rejected without keys is rejected here. The returned Run does
// the key-gated compute, then Rescales every output `rescale` times (a
// mul consumes one rescale, two on double-scale presets) and serializes.
func (e *Engine) Compile(op *Op, q url.Values, in *Inputs) (Run, error) {
	p := &params{q: q}
	rescale := p.int("rescale", 0)
	if rescale < 0 || rescale > e.srv.MaxLevel() {
		p.fail(fmt.Errorf("%w: rescale=%d out of range", abcfhe.ErrLevelOutOfRange, rescale))
	}
	compute, err := op.compile(e, p, in)
	if p.fail(err); p.err != nil {
		return nil, p.err
	}
	return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, [][]byte, error) {
		cts, err := compute(evk)
		if err != nil {
			return nil, nil, err
		}
		wire := make([][]byte, len(cts))
		for i := range cts {
			for n := 0; n < rescale; n++ {
				if cts[i], err = e.srv.Rescale(cts[i]); err != nil {
					return nil, nil, err
				}
			}
			if wire[i], err = e.srv.SerializeCiphertext(cts[i]); err != nil {
				return nil, nil, err
			}
		}
		return cts, wire, nil
	}, nil
}

// ParseComplexLines parses the message-file format: one complex value
// per line, "re" or "re im", whitespace-separated; blank lines and
// #-comments are skipped. Message files, dot's weights and evalpoly's
// coefficients all travel this way, so one file feeds the CLI and the
// service unchanged.
func ParseComplexLines(data []byte) ([]complex128, error) {
	var vals []complex128
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) > 2 {
			return nil, fmt.Errorf("%w: line %d: want \"re\" or \"re im\", got %q", abcfhe.ErrInvalidConstant, ln+1, line)
		}
		var z [2]float64
		for i, f := range fields {
			var err error
			if z[i], err = strconv.ParseFloat(f, 64); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", abcfhe.ErrInvalidConstant, ln+1, err)
			}
		}
		vals = append(vals, complex(z[0], z[1]))
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%w: no values", abcfhe.ErrInvalidConstant)
	}
	return vals, nil
}
