package lanes

// Backend is the dispatch seam between the lane engine and the limb
// kernels that run on it. The engine decides *where* a task executes;
// the backend decides *which inner loop* the task body binds — the same
// split ABC-FHE's design space explores in hardware, where BTS/EFFACT
// trade generic modular datapaths against fixed-width specialized ones.
//
// Kernel packages (internal/ntt, internal/ring, internal/rns consumers)
// bind their own implementations to each backend; lanes carries only the
// identity and selection plumbing, so no dependency edge points from
// here into the kernels.
//
// Contract: backends change execution strategy only, never results —
// every kernel must produce byte-identical output under every backend
// (the fast paths keep intermediates in lazy ranges but always normalize
// into the canonical [0, q) residues before results escape the kernel).
// TestBackendEquivalence and the public-op property tests assert this.

import (
	"fmt"
	"os"
	"sync"
)

// Backend identifies an inner-loop implementation family.
type Backend interface {
	// Name is the stable identifier ("portable", "fast") used by flags,
	// options, environment selection and bench records.
	Name() string
	// Specialized reports whether kernels should bind their fixed-width
	// fast implementations: 44-bit Barrett/Montgomery inner loops with
	// lazy reduction, hoisted slice headers and bounds-check elimination.
	// False selects the spec-shaped portable reference kernels. Only
	// kernel packages read it: the pipelines that schedule kernels (the
	// hybrid key switch included) are the same under every backend.
	Specialized() bool
}

// backend is the concrete type behind the two built-in backends. A
// future cycle-estimating hardware-model backend would implement the
// interface with its own type.
type backend struct {
	name string
	fast bool
}

func (b *backend) Name() string      { return b.name }
func (b *backend) Specialized() bool { return b.fast }

var (
	// Portable is the reference kernel set: canonical [0, q) residues
	// everywhere, generic 128-bit reduction. It is the oracle the fast
	// kernels are tested against.
	Portable Backend = &backend{name: "portable"}

	// Fast is the specialized kernel set: hand-unrolled lazy-reduction
	// NTT butterflies, Barrett multiply-accumulate rows, bounds-check-free
	// inner loops.
	Fast Backend = &backend{name: "fast", fast: true}
)

// Backends lists every built-in backend, portable first.
func Backends() []Backend { return []Backend{Portable, Fast} }

// ParseBackend resolves a backend by name.
func ParseBackend(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("lanes: unknown backend %q (have: portable, fast)", name)
}

// BackendEnv is the environment variable DefaultBackend consults — the
// hook the CI backend matrix uses to run the whole test suite under each
// implementation.
const BackendEnv = "ABCFHE_BACKEND"

var (
	defaultBackendOnce sync.Once
	defaultBackend     Backend
)

// DefaultBackend returns the process-wide default: $ABCFHE_BACKEND when
// set (panicking on an unknown name — a misconfigured matrix leg must
// fail loudly, not silently test the wrong path twice), Fast otherwise.
// ckks.Params.Build binds rings to it; SetBackend overrides per instance.
func DefaultBackend() Backend {
	defaultBackendOnce.Do(func() {
		if name := os.Getenv(BackendEnv); name != "" {
			b, err := ParseBackend(name)
			if err != nil {
				panic(err)
			}
			defaultBackend = b
			return
		}
		defaultBackend = Fast
	})
	return defaultBackend
}
