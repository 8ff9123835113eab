package lanes

// Backend names the limb-kernel binding a ring runs. The engine decides
// *where* a task executes; the binding decides *which inner loop* the
// task body runs. Production has one binding, Fast; Portable holds the
// spec-shaped reference kernels that tests compare Fast against, and
// only tests bind it (ring.Ring.SetBackend, ckks.Parameters.SetBackend).
// No option, flag or environment variable selects it.
//
// Kernel packages (internal/ntt, internal/ring, internal/rns consumers)
// own both kernel sets; lanes carries only the identity, so no
// dependency edge points from here into the kernels.
//
// Contract: the binding changes execution strategy only, never results —
// every kernel produces byte-identical output under both (the fast paths
// keep intermediates in lazy ranges but always normalize into the
// canonical [0, q) residues before results escape the kernel).
// TestBindingsAgree (internal/ring), TestBackendEquivalence
// (internal/ckks) and the root package's cross-binding tests assert this.
type Backend uint8

const (
	// Fast is the specialized kernel set: radix-4 Shoup NTT butterflies,
	// Barrett multiply-accumulate rows, bounds-check-free inner loops. It
	// is the zero value, so every ring binds it unless a test rebinds.
	Fast Backend = iota
	// Portable is the reference kernel set: canonical [0, q) residues
	// everywhere, generic 128-bit reduction. It is the oracle the fast
	// kernels are tested against.
	Portable
)

// Name is the stable identifier ("fast", "portable") used in test names
// and bench records.
func (b Backend) Name() string {
	if b == Portable {
		return "portable"
	}
	return "fast"
}

// Specialized reports whether kernels bind their fixed-width fast
// implementations; false selects the portable reference kernels. Only
// kernel packages read it: the pipelines that schedule kernels (the
// hybrid key switch included) are the same under both bindings.
func (b Backend) Specialized() bool { return b == Fast }

// DefaultBackend is the binding every ring starts with: Fast.
func DefaultBackend() Backend { return Fast }
