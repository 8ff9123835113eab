package evalop

import (
	"errors"
	"testing"

	abcfhe "repro"
)

func TestParseComplexLines(t *testing.T) {
	vals, err := ParseComplexLines([]byte("# header\n0.25\n0.5 -0.125\n\n1e-3 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{0.25, complex(0.5, -0.125), complex(1e-3, 2)}
	if len(vals) != len(want) {
		t.Fatalf("got %d values, want %d", len(vals), len(want))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, vals[i], want[i])
		}
	}
	for _, bad := range []string{"", "# only\n", "a b\n", "1 2 3\n"} {
		if _, err := ParseComplexLines([]byte(bad)); !errors.Is(err, abcfhe.ErrInvalidConstant) {
			t.Errorf("%q: err = %v, want ErrInvalidConstant", bad, err)
		}
	}
}
