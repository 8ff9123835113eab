package abcfhe

// Every public-API misuse path must return a typed error (errors.Is
// against the sentinels in errors.go) — never panic. These tests walk the
// acceptance list: bad lengths, wrong levels, malformed bytes, unknown
// presets, foreign and zero-value ciphertexts.

import (
	"encoding/binary"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/ckks"
	"repro/internal/prng"
)

func TestUnknownPresetErrors(t *testing.T) {
	if _, err := NewKeyOwner(Preset("bogus"), 1, 2); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("NewKeyOwner: %v", err)
	}
	if _, err := NewServer(Preset("bogus")); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("NewServer: %v", err)
	}
}

func TestMalformedKeyBytes(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 1, 2)
	pkBytes, _ := owner.ExportPublicKey()
	skBytes, _ := owner.ExportSecretKey()
	_ = device

	// Payload byte 10 sits entirely in bits 36..43 of packed word 1 —
	// always zero for 36-bit residues in 44-bit words — so flipping it is
	// guaranteed to push a residue past its modulus. The public blob's
	// payload starts after the 14-byte key header, the secret blob's after
	// header + 16-byte seed.
	cases := map[string][]byte{
		"empty":       nil,
		"garbage":     []byte("not a key at all"),
		"truncated":   pkBytes[:len(pkBytes)/2],
		"bad magic":   append([]byte("XXXX"), pkBytes[4:]...),
		"bit flipped": flipByte(pkBytes, 14+10),
	}
	for name, data := range cases {
		if _, err := NewEncryptor(data, 1, 2); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("NewEncryptor(%s): %v", name, err)
		}
	}
	// Wrong kind both ways.
	if _, err := NewEncryptor(skBytes, 1, 2); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("NewEncryptor(secret blob): %v", err)
	}
	if _, err := NewKeyOwnerFromSecretKey(pkBytes); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("NewKeyOwnerFromSecretKey(public blob): %v", err)
	}
	if _, err := NewKeyOwnerFromSecretKey(flipByte(skBytes, 14+16+10)); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("NewKeyOwnerFromSecretKey(bit flipped): %v", err)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

func TestMessageTooLongErrors(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 3, 4)
	long := make([]complex128, device.Slots()+1)

	if _, err := device.EncodeEncrypt(long); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("EncodeEncrypt: %v", err)
	}
	if _, err := device.EncodeEncryptBatch([][]complex128{{0.5}, long}); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("EncodeEncryptBatch: %v", err)
	}
	if _, err := owner.EncodeEncryptCompressed(long); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("EncodeEncryptCompressed: %v", err)
	}
}

// TestInvalidCiphertextErrors: a Ciphertext is built only by this
// package, so the ill-formed values a caller can still hand over are nil,
// the zero value and a ciphertext of another preset's party; everything
// else a caller controls arrives as wire bytes.
func TestInvalidCiphertextErrors(t *testing.T) {
	owner, device, server := threeParties(t, Test, 5, 6)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	for name, bad := range map[string]*Ciphertext{"nil": nil, "zero value": {}} {
		if _, err := owner.DecryptDecode(bad); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("%s decrypt: %v", name, err)
		}
		if _, err := owner.DecryptDecodeBatch([]*Ciphertext{ct, bad}); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("%s batch decrypt: %v", name, err)
		}
		if _, err := server.Add(ct, bad); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("%s server add: %v", name, err)
		}
		if _, err := device.SerializeCiphertext(bad); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("%s serialize: %v", name, err)
		}
		if bad.Level() != 0 || bad.Scale() != 0 {
			t.Errorf("%s: Level %d, Scale %g, want 0, 0", name, bad.Level(), bad.Scale())
		}
	}

	// A ciphertext from another preset's party. Test (N = 2^10, 4 limbs)
	// sits inside PN13's level range, so only the chain check turns it
	// away; PN13's 12 limbs are out of Test's range.
	owner13, device13, server13 := threeParties(t, PN13, 5, 6)
	ct13, err := device13.EncodeEncrypt(testMsgs(device13.Slots(), 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]func(s *Server, c *Ciphertext) error{
		"Negate":    func(s *Server, c *Ciphertext) error { _, err := s.Negate(c); return err },
		"Add":       func(s *Server, c *Ciphertext) error { _, err := s.Add(c, c); return err },
		"MulConst":  func(s *Server, c *Ciphertext) error { _, err := s.MulConst(c, 2); return err },
		"Rescale":   func(s *Server, c *Ciphertext) error { _, err := s.Rescale(c); return err },
		"DropLevel": func(s *Server, c *Ciphertext) error { _, err := s.DropLevel(c, 1); return err },
		"Mul":       func(s *Server, c *Ciphertext) error { _, err := s.Mul(c, c, nil); return err },
		"Rotate":    func(s *Server, c *Ciphertext) error { _, err := s.Rotate(c, 1, nil); return err },
		"InnerSum":  func(s *Server, c *Ciphertext) error { _, err := s.InnerSum(c, 2, nil); return err },
	}
	for name, op := range ops {
		if err := op(server13, ct); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("PN13 server %s of a Test ciphertext: %v", name, err)
		}
		if err := op(server, ct13); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("Test server %s of a PN13 ciphertext: %v", name, err)
		}
	}
	if _, err := owner13.DecryptDecode(ct); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("PN13 decrypt of a Test ciphertext: %v", err)
	}
	if _, err := owner13.SerializeCiphertext(ct); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("PN13 serialize of a Test ciphertext: %v", err)
	}
	if _, err := owner.DecryptDecode(ct13); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("Test decrypt of a PN13 ciphertext: %v", err)
	}

	// A chain of the same degree and depth over other primes: a device
	// built from the public key of an owner over Test with 40-bit limbs
	// (the spec-from-blob path). Level and ring degree both fit Test, so
	// only the recorded chain turns its ciphertexts away — before, Add
	// combined the foreign residues as if they were Test's.
	spec := ckks.TestParams
	spec.LimbBits = 40
	params40, err := buildParamsFromSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed40 := prng.SeedFromUint64s(5, 6)
	sk40, pk40 := ckks.NewKeyGenerator(params40, seed40).GenKeyPair()
	owner40 := newKeyOwner(params40, sk40, pk40, seed40)
	pkBytes40, err := owner40.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	device40, err := NewEncryptor(pkBytes40, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	ct40, err := device40.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ct40.Level() != ct.Level() {
		t.Fatalf("40-bit chain level %d, Test %d: the case needs equal depths", ct40.Level(), ct.Level())
	}
	foreign := map[string]func(c *Ciphertext) error{
		"Add":    func(c *Ciphertext) error { _, err := server.Add(ct, c); return err },
		"Mul":    func(c *Ciphertext) error { _, err := server.Mul(c, c, nil); return err },
		"Rotate": func(c *Ciphertext) error { _, err := server.Rotate(c, 1, nil); return err },
		"DecryptDecode": func(c *Ciphertext) error {
			_, err := owner.DecryptDecode(c)
			return err
		},
		"SerializeCiphertext": func(c *Ciphertext) error { _, err := device.SerializeCiphertext(c); return err },
	}
	for name, op := range foreign {
		if err := op(ct40); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("Test-preset %s of a 40-bit-chain ciphertext: %v", name, err)
		}
	}
	if _, err := owner40.DecryptDecode(ct); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("40-bit-chain decrypt of a Test ciphertext: %v", err)
	}

	// Separate parties over one preset share the chain: each accepts the
	// other's ciphertexts.
	owner2, device2, server2 := threeParties(t, Test, 7, 8)
	ct2, err := device2.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server2.Add(ct, ct); err != nil {
		t.Errorf("second Test server Add of the first's ciphertext: %v", err)
	}
	if _, err := server.Add(ct, ct2); err != nil {
		t.Errorf("Test server Add across two Test devices: %v", err)
	}
	if _, err := owner2.SerializeCiphertext(ct); err != nil {
		t.Errorf("second Test owner serialize of the first's ciphertext: %v", err)
	}
	if _, err := owner.DecryptDecode(ct2); err != nil {
		t.Errorf("Test owner decrypt of the second device's ciphertext: %v", err)
	}

	// The header states a caller can forge are wire bytes; each stops at
	// both deserializers. A flipped domain byte matters most: decryption
	// would double-NTT, and evaluation would relabel the data as
	// coefficient-domain.
	data, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	for name, forge := range map[string]func(d []byte){
		"NTT domain":        func(d []byte) { d[16] = 1 },
		"level 0":           func(d []byte) { d[7] = 0 },
		"level above max":   func(d []byte) { d[7] = byte(owner.MaxLevel() + 7) },
		"limb/level":        func(d []byte) { d[7] = 2 }, // full-depth payload
		"zero scale":        func(d []byte) { binary.LittleEndian.PutUint64(d[8:], 0) },
		"NaN scale":         func(d []byte) { binary.LittleEndian.PutUint64(d[8:], math.Float64bits(math.NaN())) },
		"infinite scale":    func(d []byte) { binary.LittleEndian.PutUint64(d[8:], math.Float64bits(math.Inf(1))) },
		"other ring degree": func(d []byte) { d[6] = 13 },
	} {
		d := append([]byte(nil), data...)
		forge(d)
		if _, err := owner.DeserializeCiphertext(d); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("owner %s: %v", name, err)
		}
		if _, err := server.DeserializeCiphertext(d); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("server %s: %v", name, err)
		}
	}
}

func TestBufferSizeErrors(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 7, 8)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := owner.DecryptDecodeInto(ct, make([]complex128, 3)); !errors.Is(err, ErrBufferSize) {
		t.Errorf("short slot buffer: %v", err)
	}
	cts := []*Ciphertext{ct, ct}
	if _, err := owner.DecryptDecodeBatchInto(cts, make([][]complex128, 1)); !errors.Is(err, ErrBufferSize) {
		t.Errorf("short batch: %v", err)
	}
	wrong := make([][]complex128, 2)
	wrong[0] = make([]complex128, 5)
	if _, err := owner.DecryptDecodeBatchInto(cts, wrong); !errors.Is(err, ErrBufferSize) {
		t.Errorf("mis-sized batch entry: %v", err)
	}
}

func TestServerOperandErrors(t *testing.T) {
	_, device, server := threeParties(t, Test, 9, 10)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(ct, 2)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := server.Add(ct, low); !errors.Is(err, ErrLevelMismatch) {
		t.Errorf("level mismatch: %v", err)
	}
	scaled, err := server.MulConst(ct, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Add(ct, scaled); !errors.Is(err, ErrScaleMismatch) {
		t.Errorf("scale mismatch: %v", err)
	}
	if _, err := server.DropLevel(ct, 0); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("drop to 0: %v", err)
	}
	if _, err := server.DropLevel(low, 3); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("drop upwards: %v", err)
	}
	lvl1, err := server.DropLevel(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Rescale(lvl1); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("rescale below level 1: %v", err)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 33, -(1 << 33)} {
		if _, err := server.MulConst(ct, c); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("MulConst(%g): %v", c, err)
		}
	}
	if _, err := server.MulConst(ct, -2.5); err != nil {
		t.Errorf("MulConst(-2.5) must be accepted: %v", err)
	}
}

// TestMulConstZeroAdds: MulConst by 0 carries the same scale as MulConst
// by any other constant (Δ·2^30), so its result adds to another product
// and the sum decrypts to the other term.
func TestMulConstZeroAdds(t *testing.T) {
	owner, device, server := threeParties(t, Test, 9, 10)
	msgs := testMsgs(device.Slots(), 2)
	cts, err := device.EncodeEncryptBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := server.MulConst(cts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	half, err := server.MulConst(cts[1], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := server.Add(zero, half)
	if err != nil {
		t.Fatalf("Add(MulConst(a, 0), MulConst(b, 0.5)): %v", err)
	}
	got, err := owner.DecryptDecode(sum)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if e := cmplx.Abs(got[j] - 0.5*msgs[1][j]); e > 1e-4 {
			t.Fatalf("slot %d: error %g", j, e)
		}
	}
}

// TestNonFiniteMessageErrors: NaN/Inf components must be rejected with
// ErrInvalidConstant at every public encode entry point — the same
// contract MulConst always enforced for its scalar. A non-finite float
// feeds math.Frexp garbage during scaling and would silently corrupt
// every slot of the residue polynomial, so it must stop at the door.
func TestNonFiniteMessageErrors(t *testing.T) {
	owner, device, server, evk := evalParties(t, Test)
	slots := device.Slots()

	poison := []complex128{
		complex(math.NaN(), 0),
		complex(0, math.NaN()),
		complex(math.Inf(1), 0),
		complex(0, math.Inf(-1)),
	}
	for _, z := range poison {
		msg := testMsgs(slots, 1)[0]
		msg[slots/2] = z
		if _, err := device.EncodeEncrypt(msg); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("EncodeEncrypt(%v): %v", z, err)
		}
		if _, err := device.EncodeEncryptBatch([][]complex128{testMsgs(slots, 1)[0], msg}); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("EncodeEncryptBatch(%v): %v", z, err)
		}
		if _, err := owner.EncodeEncryptCompressed(msg); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("EncodeEncryptCompressed(%v): %v", z, err)
		}
	}

	// Server-side plaintext operands share the same gate.
	ct, err := device.EncodeEncrypt(testMsgs(slots, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	weights := []complex128{1, complex(0, math.Inf(1)), 3}
	if _, err := server.DotPlain(ct, weights, evk); !errors.Is(err, ErrInvalidConstant) {
		t.Errorf("DotPlain(Inf weight): %v", err)
	}
	// Finite messages still sail through.
	if _, err := device.EncodeEncrypt(testMsgs(slots, 1)[0]); err != nil {
		t.Errorf("finite message rejected: %v", err)
	}
}

// TestScaleToleranceSymmetric: the near-equality test on operand scales
// must not depend on argument order — the old check measured the
// difference against a.Scale only, so (a, b) and (b, a) could disagree
// at the tolerance boundary.
func TestScaleToleranceSymmetric(t *testing.T) {
	_, device, server := threeParties(t, Test, 21, 22)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	nudged := func(factor float64) *Ciphertext {
		c := *ct.ct
		c.Scale *= factor
		return wrap(server.params, &c)
	}
	within := nudged(1 + 1e-13) // inside the 1e-12 relative budget
	if _, err := server.Add(ct, within); err != nil {
		t.Errorf("Add(base, nudged): %v", err)
	}
	if _, err := server.Add(within, ct); err != nil {
		t.Errorf("Add(nudged, base): %v", err)
	}

	beyond := nudged(1 + 1e-6)
	if _, err := server.Add(ct, beyond); !errors.Is(err, ErrScaleMismatch) {
		t.Errorf("Add(base, off): %v", err)
	}
	if _, err := server.Add(beyond, ct); !errors.Is(err, ErrScaleMismatch) {
		t.Errorf("Add(off, base): %v", err)
	}
}

func TestMalformedCiphertextBytes(t *testing.T) {
	owner, device, server := threeParties(t, Test, 11, 12)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	for name, mut := range map[string][]byte{
		"empty":     nil,
		"truncated": data[:len(data)-9],
		"garbage":   []byte("ABCF but not really a ciphertext"),
		"residue":   flipByte(data, 17+10), // guaranteed-zero bits of packed word 1 (see TestMalformedKeyBytes)
	} {
		if _, err := server.DeserializeCiphertext(mut); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("server %s: %v", name, err)
		}
		if _, err := owner.DeserializeCiphertext(mut); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("owner %s: %v", name, err)
		}
	}
	compressed, err := owner.EncodeEncryptCompressed(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.ExpandCompressedUpload(compressed[:30]); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("truncated compressed upload: %v", err)
	}
	if _, err := server.ExpandCompressedUpload(data); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("full ciphertext as compressed upload: %v", err)
	}
}

func TestWireBytesLevelErrors(t *testing.T) {
	owner, device, server := threeParties(t, Test, 13, 14)
	for _, level := range []int{0, -1, owner.MaxLevel() + 1} {
		if _, err := device.CiphertextWireBytes(level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("device level %d: %v", level, err)
		}
		if _, err := server.CompressedWireBytes(level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("server level %d: %v", level, err)
		}
		if _, err := owner.CompressedWireBytes(level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("owner level %d: %v", level, err)
		}
	}
}
