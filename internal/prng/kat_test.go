package prng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// katCases pins the exact stream each sampler draws at a fixed seed: a
// rewrite of the ChaCha block or of a sampler must reproduce these hashes,
// so keys, masks and errors derived from a seed never change silently.
var katCases = []struct {
	name string
	draw func(s *Source, h hash.Hash)
	want string
}{
	{"Uint64", func(s *Source, h hash.Hash) {
		for i := 0; i < 4096; i++ {
			putWord(h, s.Uint64())
		}
	}, "becb6a3d9e1a02085354f498c04e1a3d20060319d98799bfd4e1c545d21a9048"},
	{"Uint32/Uint64 interleaved", func(s *Source, h hash.Hash) {
		// Runs of 1, 2, 3, … Uint32 reads between Uint64 reads hit every
		// word offset, so the ragged-tail discard at a block end is taken
		// after an odd number of Uint32 calls.
		for run := 1; run <= 64; run++ {
			for i := 0; i < run; i++ {
				putWord(h, uint64(s.Uint32()))
			}
			putWord(h, s.Uint64())
		}
	}, "bad6082f3fa67e7c78201e57d8c7d54fbe1eac5e22591c74ad46f7ec6aefac9f"},
	{"UniformPoly q36", uniformDraw(68718428161), "978fe8a046bc0e6eecb7997dcbfda07dabf0900cd6d5d139a8c2a06619cfd66e"},
	{"UniformPoly q61", uniformDraw(2305843009213693951), "30cc1a77c78cb6dac5242e2add469e0703d740a2ec879871e407d2c557eac442"},
	{"UniformPoly q2", uniformDraw(2), "5e919ecb3d38faee6621cec4fe052f44523ee015fb295bab8335f636ded564a9"},
	{"GaussianPoly", func(s *Source, h hash.Hash) {
		out := make([]uint64, 4096)
		s.GaussianPoly(out, 68718428161)
		putWords(h, out)
	}, "19f16d8ae3bfad18cff6566777a3caf4986f54b6a359e777d2105b281f30904f"},
	{"TernaryPoly", func(s *Source, h hash.Hash) {
		out := make([]uint64, 4096)
		s.TernaryPoly(out, 68718428161)
		putWords(h, out)
	}, "916ffffa021edcca70a4a7f58db5d3752ccf0df7abf3ff50ff426b541991964e"},
	{"TernaryPolyHW", func(s *Source, h hash.Hash) {
		out := make([]uint64, 4096)
		s.TernaryPolyHW(out, 192, 68718428161)
		putWords(h, out)
	}, "2c3f83d851cbe90820ba7952ddfe177d392042cbfe14f47148a916faba4cfa9d"},
}

func uniformDraw(q uint64) func(*Source, hash.Hash) {
	return func(s *Source, h hash.Hash) {
		out := make([]uint64, 4096)
		s.UniformPoly(out, q)
		putWords(h, out)
	}
}

func putWord(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putWords(h hash.Hash, vs []uint64) {
	for _, v := range vs {
		putWord(h, v)
	}
}

func TestKnownAnswers(t *testing.T) {
	for _, c := range katCases {
		h := sha256.New()
		c.draw(NewSource(SeedFromUint64s(0x0123456789ABCDEF, 0xFEDCBA9876543210), 5), h)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: stream hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestUniformPolyEdgeCases: q = 1 fills zeros without consuming keystream,
// as UniformModQ(1) does, and q = 0 panics.
func TestUniformPolyEdgeCases(t *testing.T) {
	s := NewSource(SeedFromUint64s(1, 2), 0)
	ref := NewSource(SeedFromUint64s(1, 2), 0)
	out := make([]uint64, 8)
	s.UniformPoly(out, 1)
	for _, v := range out {
		if v != 0 {
			t.Fatalf("UniformPoly(q=1) drew %d", v)
		}
	}
	if s.UniformModQ(1) != 0 || s.Uint64() != ref.Uint64() {
		t.Fatal("sampling mod 1 consumed keystream")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UniformPoly(q=0) did not panic")
		}
	}()
	s.UniformPoly(out, 0)
}

// TestUniformPolyMatchesUniformModQ: UniformPoly reads the keystream block
// in place, and must draw exactly what len(out) UniformModQ calls draw —
// same residues, same position afterwards — at any starting word offset
// (odd Uint32 runs first leave a ragged tail) and at a modulus just above
// a power of two, where about half the candidates are rejected.
func TestUniformPolyMatchesUniformModQ(t *testing.T) {
	for _, q := range []uint64{2, 1<<35 + 1, 68718428161, 2305843009213693951} {
		for _, n := range []int{1, 7, 8, 9, 1000} {
			for skip := 0; skip < 5; skip++ {
				s := NewSource(SeedFromUint64s(uint64(skip), q), 3)
				ref := NewSource(SeedFromUint64s(uint64(skip), q), 3)
				for i := 0; i < skip; i++ {
					s.Uint32()
					ref.Uint32()
				}
				out := make([]uint64, n)
				s.UniformPoly(out, q)
				for i, v := range out {
					if want := ref.UniformModQ(q); v != want {
						t.Fatalf("q %d n %d skip %d: entry %d is %d, want %d", q, n, skip, i, v, want)
					}
				}
				if s.Uint32() != ref.Uint32() || s.Uint64() != ref.Uint64() {
					t.Fatalf("q %d n %d skip %d: stream position differs after the row", q, n, skip)
				}
			}
		}
	}
}
