package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	abcfhe "repro"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, parts := range [][][]byte{
		{[]byte("a")},
		{[]byte("hello"), []byte("")},
		{[]byte{0, 1, 2}, bytes.Repeat([]byte{7}, 1000), []byte("x")},
	} {
		enc := EncodeFrames(parts...)
		var buf bytes.Buffer
		if err := WriteFrames(&buf, parts...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), enc) {
			t.Fatal("WriteFrames and EncodeFrames disagree")
		}
		got, err := ReadFrames(bytes.NewReader(enc), 4, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(parts) {
			t.Fatalf("got %d parts, want %d", len(got), len(parts))
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				t.Fatalf("part %d differs", i)
			}
		}
	}
}

func TestFrameRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"zero-parts":     EncodeFrames(),
		"trailing-bytes": append(EncodeFrames([]byte("a")), 0xFF),
		"truncated-body": EncodeFrames([]byte("abc"))[:6],
	}
	// Declared part count way past the cap.
	var many [4]byte
	binary.LittleEndian.PutUint32(many[:], 1<<30)
	cases["too-many-parts"] = many[:]
	// One part whose declared length exceeds maxPart.
	big := EncodeFrames(bytes.Repeat([]byte{1}, 100))
	cases["oversized-part"] = big

	for name, data := range cases {
		maxPart := int64(1 << 20)
		if name == "oversized-part" {
			maxPart = 50
		}
		if _, err := ReadFrames(bytes.NewReader(data), 4, maxPart); !errors.Is(err, abcfhe.ErrMalformedWire) {
			t.Errorf("%s: err = %v, want ErrMalformedWire", name, err)
		}
	}
}
