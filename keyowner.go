package abcfhe

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// KeyOwner is the party holding decryption authority. It generates the
// keypair (deterministically from a 128-bit seed — the property the
// accelerator's on-chip PRNG exploits), decrypts and decodes server
// replies, produces seeded compressed uploads (the fresh-upload form that
// halves client→server traffic), and exports keys in the packed wire
// formats: the public key for a fleet of Encryptor devices, the secret
// key for escrow or migration to another machine.
//
// A KeyOwner is safe for concurrent use.
type KeyOwner struct {
	party
	encoder   *ckks.Encoder
	decryptor *ckks.Decryptor
	secret    *ckks.SecretKey
	public    *ckks.PublicKey
	seed      [16]byte

	seedMu sync.Mutex
	seeded *ckks.SeededEncryptor // lazily built; guarded by seedMu until published
}

// NewKeyOwner generates a fresh keypair for the preset from the 128-bit
// seed. All key material derives deterministically from the seed, and
// execution options never change the cryptographic output. The one
// deliberate exception is EncodeEncryptCompressed: its PRNG stream base
// is drawn fresh per instance, so two owners over the same keys
// (restart, migration) never reuse a stream — compressed-upload bytes
// are therefore not reproducible across instances.
func NewKeyOwner(preset Preset, seedLo, seedHi uint64, opts ...Option) (*KeyOwner, error) {
	params, err := buildParams(preset, opts)
	if err != nil {
		return nil, err
	}
	seed := prng.SeedFromUint64s(seedLo, seedHi)
	sk, pk := ckks.NewKeyGenerator(params, seed).GenKeyPair()
	return newKeyOwner(params, sk, pk, seed), nil
}

// NewKeyOwnerFromSecretKey rebuilds a key owner on another machine from
// nothing but an exported secret-key blob: the embedded parameter spec
// reconstructs the parameter set, the embedded owner seed regenerates the
// public key, and the imported key decrypts everything the original
// owner's fleet encrypted.
func NewKeyOwnerFromSecretKey(secretKey []byte, opts ...Option) (*KeyOwner, error) {
	params, err := paramsFromKeyBlob(secretKey, ckks.KeyKindSecret, opts)
	if err != nil {
		return nil, err
	}
	sk, seed, err := params.UnmarshalSecretKey(secretKey)
	if err != nil {
		return nil, wireErr(err)
	}
	pk := ckks.NewKeyGenerator(params, seed).GenPublicKey(sk)
	return newKeyOwner(params, sk, pk, seed), nil
}

func newKeyOwner(params *ckks.Parameters, sk *ckks.SecretKey, pk *ckks.PublicKey, seed [16]byte) *KeyOwner {
	return &KeyOwner{
		party:     party{params: params},
		encoder:   ckks.NewEncoder(params),
		decryptor: ckks.NewDecryptor(params, sk),
		secret:    sk,
		public:    pk,
		seed:      seed,
	}
}

// ExportPublicKey serializes the public key in the packed wire format.
// The blob embeds the parameter spec, so NewEncryptor needs nothing else.
func (o *KeyOwner) ExportPublicKey() ([]byte, error) {
	return o.params.MarshalPublicKey(o.public)
}

// ExportSecretKey serializes the secret key (with the owner seed) in the
// packed wire format. The blob is secret material: whoever holds it can
// decrypt and re-derive the keypair. See NewKeyOwnerFromSecretKey.
func (o *KeyOwner) ExportSecretKey() ([]byte, error) {
	return o.params.MarshalSecretKey(o.secret, o.seed)
}

// EvalKeyConfig selects what KeyOwner.ExportEvaluationKeys generates.
//
// The keys are built for hybrid (P·Q) key switching and cost
// (1 + rotations) · ⌈D/α⌉ · 2 packed polynomials of D+α limbs — linear in
// depth D. Export keys no deeper than the circuit the server runs
// (MaxLevel) and only the rotation steps it needs (Rotations;
// InnerSumRotations builds the power-of-two ladder an inner sum or dot
// product consumes).
type EvalKeyConfig struct {
	// MaxLevel caps the depth of every key in the set; key-gated server
	// operations work on ciphertexts at level ≤ MaxLevel. 0 means full
	// depth.
	//
	// Depth accounting for polynomial evaluation: Server.EvalPoly runs its
	// relinearized products down to PolyEval.KeyLevel() — the compiled
	// plan's input level minus one rescale — so MaxLevel must be at least
	// that (a compiled plan reports it; Server.EvalPolyDepth budgets it
	// ahead of compilation). An EvalMod after CoeffsToSlots needs the
	// larger of the DFT's StartLevel and the EvalMod's KeyLevel — for the
	// bootstrap-shaped chain that is simply the DFT StartLevel.
	MaxLevel int
	// Rotations lists the slot steps to generate keys for (normalized
	// cyclically, deduplicated; 0 is the identity and is skipped).
	Rotations []int
	// Conjugate additionally generates the complex-conjugation key.
	Conjugate bool
}

// ExportEvaluationKeys generates and serializes an evaluation-key set for
// a Server: the relinearization key (ct×ct multiplication) plus rotation
// keys per cfg. The keys derive deterministically from the owner seed, so
// re-export with the same config is byte-identical. The blob embeds the
// parameter spec — a server can bootstrap from it alone
// (NewServerFromEvaluationKeys).
//
// Evaluation keys do not decrypt, but they transform the owner's
// ciphertexts; ship them to the evaluating server only. The encrypting
// devices never need them (they hold just the public key), and the owner
// itself never evaluates — which is why this is an export, not a field.
func (o *KeyOwner) ExportEvaluationKeys(cfg EvalKeyConfig) ([]byte, error) {
	maxLevel := cfg.MaxLevel
	if maxLevel == 0 {
		maxLevel = o.params.MaxLevel()
	}
	if maxLevel < 1 || maxLevel > o.params.MaxLevel() {
		return nil, fmt.Errorf("%w: evaluation-key depth %d not in [1, %d]",
			ErrLevelOutOfRange, maxLevel, o.params.MaxLevel())
	}
	if o.params.SpecialLimbs == 0 {
		return nil, fmt.Errorf("%w: key switching needs special primes; this parameter set has none",
			ErrGadgetUnsupported)
	}
	ks := ckks.NewKeyGenerator(o.params, o.seed).
		GenEvaluationKeySet(o.secret, maxLevel, cfg.Rotations, cfg.Conjugate, ckks.GadgetHybrid)
	return o.params.MarshalEvaluationKeySet(ks)
}

// LinearTransformRotations returns the rotation steps (ascending, never
// 0) a BSGS linear transform over the given nonzero diagonal indices
// consumes, for a parameter set with `slots` message slots (Slots() on
// any party). n1 ≤ 0 selects the same cost-optimal block size
// Server.NewLinearTransform selects, so a key owner can derive the exact
// ladder to export from the matrix's sparsity pattern alone — without
// the matrix entries, the server's parameters, or any key material:
//
//	cfg.Rotations = append(cfg.Rotations, LinearTransformRotations(slots, idx, 0)...)
func LinearTransformRotations(slots int, diags []int, n1 int) []int {
	if n1 <= 0 {
		n1 = ckks.OptimalN1(slots, diags)
	}
	babies, giants := ckks.BSGSSteps(slots, diags, n1)
	set := map[int]bool{}
	for _, s := range babies {
		set[s] = true
	}
	for _, s := range giants {
		set[s] = true
	}
	delete(set, 0)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// HomomorphicDFTRotations returns the rotation steps a homomorphic DFT
// pipeline (Server.NewHomomorphicDFT with the same `levels`) consumes,
// derived from the stage geometry alone. Export these plus
// Conjugate: true (CoeffsToSlots' real/imaginary split conjugates):
//
//	blob, err := owner.ExportEvaluationKeys(EvalKeyConfig{
//	    Rotations: HomomorphicDFTRotations(owner.Slots(), levels),
//	    Conjugate: true,
//	})
func HomomorphicDFTRotations(slots, levels int) []int {
	return ckks.HomomorphicDFTRotations(slots, levels)
}

// DecryptDecode runs the inbound pipeline: decryption at the ciphertext's
// level, allocation-free CRT combination and FFT decoding.
func (o *KeyOwner) DecryptDecode(ct *Ciphertext) ([]complex128, error) {
	return o.DecryptDecodeInto(ct, make([]complex128, o.params.Slots()))
}

// DecryptDecodeInto is DecryptDecode writing into a caller-provided slot
// buffer of length Slots() (returned for chaining). With a reused buffer
// the steady-state inbound pipeline allocates only transient bookkeeping.
func (o *KeyOwner) DecryptDecodeInto(ct *Ciphertext, out []complex128) ([]complex128, error) {
	if err := validateCoeffCiphertext(o.params, ct); err != nil {
		return nil, err
	}
	if len(out) != o.params.Slots() {
		return nil, fmt.Errorf("%w: %d slots, want %d", ErrBufferSize, len(out), o.params.Slots())
	}
	pt := o.decryptor.Decrypt(ct)
	o.encoder.DecodeInto(pt, out)
	o.params.PutPlaintext(pt)
	return out, nil
}

// DecryptDecodeBatch runs the inbound pipeline over a whole batch in
// parallel (the decryptor is stateless, so messages are independent).
func (o *KeyOwner) DecryptDecodeBatch(cts []*Ciphertext) ([][]complex128, error) {
	return o.DecryptDecodeBatchInto(cts, make([][]complex128, len(cts)))
}

// DecryptDecodeBatchInto is DecryptDecodeBatch writing into
// caller-provided slot buffers: out must have len(cts) entries; nil
// entries are allocated, non-nil entries (length Slots()) are reused in
// place. Whole messages fan out across the lane engine; results are
// bit-identical to sequential DecryptDecode calls at any worker count.
func (o *KeyOwner) DecryptDecodeBatchInto(cts []*Ciphertext, out [][]complex128) ([][]complex128, error) {
	if len(out) != len(cts) {
		return nil, fmt.Errorf("%w: %d buffers for %d ciphertexts", ErrBufferSize, len(out), len(cts))
	}
	for i, ct := range cts {
		if err := validateCoeffCiphertext(o.params, ct); err != nil {
			return nil, fmt.Errorf("ciphertext %d: %w", i, err)
		}
		if out[i] != nil && len(out[i]) != o.params.Slots() {
			return nil, fmt.Errorf("%w: buffer %d has %d slots, want %d", ErrBufferSize, i, len(out[i]), o.params.Slots())
		}
	}
	o.params.Ring().Engine().Run(len(cts), func(i int) {
		if out[i] == nil {
			out[i] = make([]complex128, o.params.Slots())
		}
		pt := o.decryptor.Decrypt(cts[i])
		o.encoder.DecodeInto(pt, out[i])
		o.params.PutPlaintext(pt)
	})
	return out, nil
}

// EncodeEncryptCompressed runs the seeded upload path: encode, encrypt
// with a PRNG-derived mask, and serialize only (c0, 16-byte seed) — about
// half the bytes of a full ciphertext. Seeded encryption uses the secret
// key, so fresh uploads are a KeyOwner capability (fleet devices use the
// public-key Encryptor instead).
func (o *KeyOwner) EncodeEncryptCompressed(msg []complex128) ([]byte, error) {
	if err := validateMessage(o.params, msg); err != nil {
		return nil, err
	}
	se, err := o.seededEncryptor()
	if err != nil {
		return nil, err
	}
	pt := o.encoder.Encode(msg)
	sct := se.Encrypt(pt)
	o.params.PutPlaintext(pt)
	return o.params.MarshalSeeded(sct)
}

// seededEncryptor lazily builds the seeded encryptor. The owner seed is
// pinned by the key material, but the stream counter restarts at 0 in
// every process — so two KeyOwner instances over the same keys (restart,
// migration via NewKeyOwnerFromSecretKey) would reuse (seed, stream)
// pairs and leak plaintext differences. A fresh random 62-bit stream
// base per instance keeps every upload's PRNG window disjoint (the
// stream coordinate is carried in the wire form, so servers expand as
// usual); the mask/error seeds themselves are one-way derived from the
// owner seed inside the ckks constructor, so the wire never carries key-
// derivation material. A transient entropy failure is retried on the
// next call rather than permanently disabling the path.
func (o *KeyOwner) seededEncryptor() (*ckks.SeededEncryptor, error) {
	o.seedMu.Lock()
	defer o.seedMu.Unlock()
	if o.seeded == nil {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("abcfhe: seeding upload stream base: %w", err)
		}
		base := binary.LittleEndian.Uint64(buf[:])
		o.seeded = ckks.NewSeededEncryptorAt(o.params, o.secret, o.seed, base)
	}
	return o.seeded, nil
}

// Slots, MaxLevel, Workers, Close, SerializeCiphertext,
// DeserializeCiphertext, CiphertextWireBytes and CompressedWireBytes are
// provided by the embedded party substrate (party.go).
