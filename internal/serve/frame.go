package serve

import (
	"encoding/binary"
	"fmt"
	"io"

	abcfhe "repro"
)

// ContentTypeFrames is the media type of multi-part binary bodies: a
// little-endian u32 part count, then per part a u32 length prefix and
// the raw bytes. Every eval request and response uses it — a mul sends
// two ciphertext blobs, CoeffsToSlots returns two — so clients handle
// exactly one body shape.
const ContentTypeFrames = "application/x-abcfhe-frames"

// WriteFrames emits parts in the frame encoding.
func WriteFrames(w io.Writer, parts ...[]byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// EncodeFrames is WriteFrames into a fresh buffer.
func EncodeFrames(parts ...[]byte) []byte {
	n := 4
	for _, p := range parts {
		n += 4 + len(p)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// ReadFrames parses a framed body, bounding both the part count and the
// per-part size before allocating — the declared lengths are
// attacker-controlled, so nothing is sized from a header alone without
// these caps.
func ReadFrames(r io.Reader, maxParts int, maxPart int64) ([][]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: frame header: %v", abcfhe.ErrMalformedWire, err)
	}
	count := int(binary.LittleEndian.Uint32(hdr[:]))
	if count < 1 || count > maxParts {
		return nil, fmt.Errorf("%w: %d frame parts, want 1..%d", abcfhe.ErrMalformedWire, count, maxParts)
	}
	parts := make([][]byte, count)
	for i := range parts {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: frame %d length: %v", abcfhe.ErrMalformedWire, i, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxPart {
			return nil, fmt.Errorf("%w: frame %d is %d bytes, cap %d", abcfhe.ErrMalformedWire, i, n, maxPart)
		}
		parts[i] = make([]byte, n)
		if _, err := io.ReadFull(r, parts[i]); err != nil {
			return nil, fmt.Errorf("%w: frame %d body: %v", abcfhe.ErrMalformedWire, i, err)
		}
	}
	// A trailing byte means the framing and the body disagree — reject
	// rather than silently ignore what a confused client sent.
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after %d frames", abcfhe.ErrMalformedWire, count)
	}
	return parts, nil
}
