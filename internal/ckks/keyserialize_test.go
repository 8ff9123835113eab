package ckks

import (
	"bytes"
	"testing"
)

func TestPublicKeyRoundTrip(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()

	data, err := p.MarshalPublicKey(pk)
	if err != nil {
		t.Fatal(err)
	}
	if want := KeySpecWireBytes(p.Spec(), KeyKindPublic); len(data) != want {
		t.Fatalf("wire size %d != reported %d", len(data), want)
	}
	got, err := p.UnmarshalPublicKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.P0.IsNTT || !got.P1.IsNTT {
		t.Fatal("unmarshaled key must be NTT-domain")
	}
	for i := range pk.P0.Coeffs {
		for j := range pk.P0.Coeffs[i] {
			if pk.P0.Coeffs[i][j] != got.P0.Coeffs[i][j] || pk.P1.Coeffs[i][j] != got.P1.Coeffs[i][j] {
				t.Fatalf("coefficient mismatch at limb %d pos %d", i, j)
			}
		}
	}
	// Re-marshal is byte-identical (canonical encoding).
	again, err := p.MarshalPublicKey(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

func TestSecretKeyRoundTrip(t *testing.T) {
	p := testParams
	seed := testSeed()
	kg := NewKeyGenerator(p, seed)
	sk := kg.GenSecretKey()

	data, err := p.MarshalSecretKey(sk, seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := KeySpecWireBytes(p.Spec(), KeyKindSecret); len(data) != want {
		t.Fatalf("wire size %d != reported %d", len(data), want)
	}
	got, gotSeed, err := p.UnmarshalSecretKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeed != seed {
		t.Fatal("owner seed lost in round trip")
	}
	for i := range sk.S.Coeffs {
		for j := range sk.S.Coeffs[i] {
			if sk.S.Coeffs[i][j] != got.S.Coeffs[i][j] {
				t.Fatalf("coefficient mismatch at limb %d pos %d", i, j)
			}
		}
	}
	// The re-imported key decrypts what the original key's pk encrypted.
	_, pk := NewKeyGenerator(p, seed).GenKeyPair()
	enc := NewEncoder(p)
	msg := randMsg(p, 0, 31)
	ct := NewEncryptor(p, pk, seed).Encrypt(enc.Encode(msg))
	out := enc.Decode(NewDecryptor(p, got).Decrypt(ct))
	if e := maxErr(msg, out); e > 1e-4 {
		t.Fatalf("re-imported secret key decrypts with error %g", e)
	}
}

func TestReadKeySpec(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()

	pkData, _ := p.MarshalPublicKey(pk)
	spec, kind, err := ReadKeySpec(pkData)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KeyKindPublic {
		t.Fatalf("kind 0x%02x, want public", kind)
	}
	if spec != p.Spec() {
		t.Fatalf("spec %+v != %+v", spec, p.Spec())
	}
	// The embedded spec rebuilds parameters that accept the blob.
	p2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.UnmarshalPublicKey(pkData); err != nil {
		t.Fatalf("rebuilt parameters reject the blob: %v", err)
	}

	skData, _ := p.MarshalSecretKey(sk, testSeed())
	if _, kind, _ := ReadKeySpec(skData); kind != KeyKindSecret {
		t.Fatal("secret blob kind mismatch")
	}
}

func TestUnmarshalKeyRejectsCorruption(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	pkData, _ := p.MarshalPublicKey(pk)
	skData, _ := p.MarshalSecretKey(sk, testSeed())

	cases := map[string]func([]byte) []byte{
		"empty":      func(d []byte) []byte { return nil },
		"short":      func(d []byte) []byte { return d[:8] },
		"bad magic":  func(d []byte) []byte { d[0] = 'X'; return d },
		"bad ver":    func(d []byte) []byte { d[4] = 9; return d },
		"bad kind":   func(d []byte) []byte { d[5] = 'Z'; return d },
		"wrong logN": func(d []byte) []byte { d[6]++; return d },
		"wrong hw":   func(d []byte) []byte { d[10]++; return d },
		"truncated":  func(d []byte) []byte { return d[:len(d)-3] },
		"padded":     func(d []byte) []byte { return append(d, 0) },
		// The secret blob's first 16 payload bytes are the seed, so start
		// past them in both blobs to hit actual residues.
		"residue>=q": func(d []byte) []byte {
			for i := keyHeaderLen() + 16; i < keyHeaderLen()+24; i++ {
				d[i] = 0xFF
			}
			return d
		},
	}
	for name, corrupt := range cases {
		d := append([]byte(nil), pkData...)
		if _, err := p.UnmarshalPublicKey(corrupt(d)); err == nil {
			t.Errorf("public %s: corruption not detected", name)
		}
		d = append([]byte(nil), skData...)
		if _, _, err := p.UnmarshalSecretKey(corrupt(d)); err == nil {
			t.Errorf("secret %s: corruption not detected", name)
		}
	}
	// Cross-kind: a secret blob must not parse as a public key (and vice
	// versa), and key blobs must not parse as ciphertexts.
	if _, err := p.UnmarshalPublicKey(skData); err == nil {
		t.Error("secret blob parsed as public key")
	}
	if _, _, err := p.UnmarshalSecretKey(pkData); err == nil {
		t.Error("public blob parsed as secret key")
	}
	if _, err := p.UnmarshalCiphertext(pkData); err == nil {
		t.Error("public key blob parsed as ciphertext")
	}
}

func TestMarshalKeyRejectsBadShape(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	_, pk := kg.GenKeyPair()

	coeffDomain := p.Ring().CopyPoly(pk.P0)
	coeffDomain.IsNTT = false
	if _, err := p.MarshalPublicKey(&PublicKey{P0: coeffDomain, P1: pk.P1}); err == nil {
		t.Error("coefficient-domain key must not marshal")
	}
	short := &PublicKey{P0: pk.P0, P1: pk.P1}
	short.P0 = p.RingAt(2).NewPoly()
	short.P0.IsNTT = true
	if _, err := p.MarshalPublicKey(short); err == nil {
		t.Error("partial-depth key must not marshal")
	}
	if _, err := p.MarshalPublicKey(nil); err == nil {
		t.Error("nil key must not marshal")
	}
	if _, err := p.MarshalSecretKey(nil, testSeed()); err == nil {
		t.Error("nil secret key must not marshal")
	}
}
