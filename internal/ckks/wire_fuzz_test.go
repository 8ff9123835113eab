package ckks

// Wire hardening: the unmarshalers face untrusted bytes (ciphertexts from
// the network, key blobs from disk), so they must return errors — never
// panic, and never allocate proportionally to attacker-claimed sizes
// (payload lengths are validated against the parameter set before any
// polynomial is allocated). The fuzz targets below drive truncated,
// corrupted and bit-flipped inputs through every parser; the Go fuzz
// harness fails on any panic.

import (
	"bytes"
	"testing"
)

// fuzzSeedCorpus returns valid wire blobs of every kind plus adversarial
// variants (truncations, bit flips) as a starting corpus.
func fuzzSeedCorpus(t testing.TB) [][]byte {
	t.Helper()
	p := testParams
	seed := testSeed()
	kg := NewKeyGenerator(p, seed)
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	ct := NewEncryptor(p, pk, seed).Encrypt(enc.Encode(randMsg(p, 8, 41)))
	sct := NewSeededEncryptor(p, sk, seed).Encrypt(enc.Encode(randMsg(p, 8, 42)))

	word := wordBlob(t, p, ct) // the retired encoding: every parser must refuse it
	packed, _ := p.MarshalCiphertext(ct, true)
	seeded, _ := p.MarshalSeeded(sct)
	pkData, _ := p.MarshalPublicKey(pk)
	skData, _ := p.MarshalSecretKey(sk, seed)
	evkData, _ := p.MarshalEvaluationKeySet(kg.GenEvaluationKeySet(sk, 2, []int{1}, true, GadgetHybrid))

	evkRetired := retiredGadgetTag(evkData)

	corpus := [][]byte{nil, []byte("ABCF"), word, packed, seeded, pkData, skData, evkData, evkRetired}
	for _, d := range [][]byte{word, packed, seeded, pkData, skData, evkData, evkRetired} {
		corpus = append(corpus, d[:len(d)/2])
		flipped := append([]byte(nil), d...)
		flipped[len(flipped)/3] ^= 0x40
		corpus = append(corpus, flipped)
	}
	return corpus
}

// retiredGadgetTag forges the gadget byte of a valid evaluation-key blob
// to 0 — the tag of the retired digit gadget, which every parser must
// reject from the header alone.
func retiredGadgetTag(evk []byte) []byte {
	d := append([]byte(nil), evk...)
	d[keyHeaderLen()] = 0
	return d
}

// fuzzParse runs data through every untrusted-bytes entry point. Successful
// parses must re-marshal canonically (marshal∘unmarshal is the identity on
// valid blobs).
func fuzzParse(t *testing.T, data []byte) {
	p := testParams
	if ct, err := p.UnmarshalCiphertext(data); err == nil {
		again, err := p.MarshalCiphertext(ct, true)
		if err != nil {
			t.Fatalf("accepted ciphertext does not re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("ciphertext re-marshal not canonical")
		}
	}
	if sct, err := p.UnmarshalSeeded(data); err == nil {
		again, err := p.MarshalSeeded(sct)
		if err != nil {
			t.Fatalf("accepted seeded ciphertext does not re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("seeded ciphertext re-marshal not canonical")
		}
	}
	if pk, err := p.UnmarshalPublicKey(data); err == nil {
		again, err := p.MarshalPublicKey(pk)
		if err != nil {
			t.Fatalf("accepted public key does not re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("public key re-marshal not canonical")
		}
	}
	if sk, seed, err := p.UnmarshalSecretKey(data); err == nil {
		again, err := p.MarshalSecretKey(sk, seed)
		if err != nil {
			t.Fatalf("accepted secret key does not re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("secret key re-marshal not canonical")
		}
	}
	if ks, err := p.UnmarshalEvaluationKeySet(data); err == nil {
		again, err := p.MarshalEvaluationKeySet(ks)
		if err != nil {
			t.Fatalf("accepted evaluation keys do not re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("evaluation-key re-marshal not canonical")
		}
	}
	_, _, _ = ReadKeySpec(data)
	_, _, _ = ReadEvalKeyInfo(data)
}

func FuzzUnmarshalCiphertext(f *testing.F) {
	for _, d := range fuzzSeedCorpus(f) {
		f.Add(d)
	}
	f.Fuzz(fuzzParse)
}

// FuzzUnmarshalEvaluationKeys targets the evaluation-key parser: the
// largest and most structured of the key formats (sub-header geometry,
// rotation-step table, per-key payload). Accepted blobs must re-marshal
// canonically (checked inside fuzzParse).
func FuzzUnmarshalEvaluationKeys(f *testing.F) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk := kg.GenSecretKey()
	valid, _ := p.MarshalEvaluationKeySet(kg.GenEvaluationKeySet(sk, 2, []int{1, 3}, true, GadgetHybrid))
	// A mask-seed bit flip is a valid blob of different keys: it must
	// parse and re-marshal canonically.
	seedFlip := append([]byte(nil), valid...)
	seedFlip[keyHeaderLen()+evalSeedOff+7] ^= 0x10
	f.Add(seedFlip)
	// The valid blob and its retired-tag forgery: the second must fail at
	// the tag whatever else the header says.
	for _, evk := range [][]byte{valid, retiredGadgetTag(valid)} {
		f.Add(evk)
		// Reach every sub-header branch: bit-flip the key header, the eval
		// sub-header and the rotation-step table byte by byte.
		for i := 0; i < evalHeaderLen(2) && i < len(evk); i++ {
			d := append([]byte(nil), evk...)
			d[i] ^= 1 << uint(i%8)
			f.Add(d)
		}
	}
	f.Fuzz(fuzzParse)
}

func FuzzUnmarshalPublicKey(f *testing.F) {
	p := testParams
	_, pk := NewKeyGenerator(p, testSeed()).GenKeyPair()
	pkData, _ := p.MarshalPublicKey(pk)
	f.Add(pkData)
	// Bit-flip every header byte once so the corpus reaches each branch.
	for i := 0; i < keyHeaderLen(); i++ {
		d := append([]byte(nil), pkData...)
		d[i] ^= 1 << uint(i%8)
		f.Add(d)
	}
	f.Fuzz(fuzzParse)
}

// TestWireParsersNeverPanic replays the seed corpus (and systematic
// single-byte corruptions of it) through the parsers under `go test` — the
// deterministic slice of the fuzz targets that runs on every CI push.
func TestWireParsersNeverPanic(t *testing.T) {
	for _, d := range fuzzSeedCorpus(t) {
		fuzzParse(t, d)
		if len(d) == 0 {
			continue
		}
		stride := len(d)/64 + 1
		for i := 0; i < len(d); i += stride {
			m := append([]byte(nil), d...)
			m[i] ^= 0xA5
			fuzzParse(t, m)
		}
		for _, cut := range []int{1, len(d) / 2, len(d) - 1} {
			if cut < len(d) {
				fuzzParse(t, d[:cut])
			}
		}
	}
}
