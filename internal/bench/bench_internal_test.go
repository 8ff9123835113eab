package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestAllExperimentsRunFast(t *testing.T) {
	for _, id := range IDs() {
		r, err := Run(id, Options{Fast: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.ID != id {
			t.Fatalf("%s: result carries ID %q", id, r.ID)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) {
				t.Fatalf("%s: row width %d != header width %d", id, len(row), len(r.Header))
			}
		}
		out := r.Render()
		if !strings.Contains(out, r.Title) {
			t.Fatalf("%s: render missing title", id)
		}
		csv := r.CSV()
		if strings.Count(csv, "\n") != len(r.Rows)+1 {
			t.Fatalf("%s: CSV line count wrong", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{"archsweep", "decode", "fig1", "fig2", "fig3c", "fig4",
		"fig5a", "fig5b", "fig6a", "fig6b", "memclaim", "primes", "seeded",
		"swlanes", "table1", "table2"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("experiment list %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiment list %v, want %v", got, want)
		}
	}
}

// renderPins are the SHA-256 digests of every fast-mode Render() taken
// before the model packages were reorganised. The paper model is
// deterministic, so a refactor of it must reproduce every table byte for
// byte. "decode" and "swlanes" time this host and are not pinned. The pins
// were taken on amd64 (other architectures may fuse multiply-adds and
// round differently).
var renderPins = map[string]string{
	"archsweep": "11273528b338278ef4e3f99658143471f6eb8a661b09a61018cf00a749c943eb",
	"fig1":      "eab83b515cc472d4a65b82eeb79ff8b53d0abda7d59b26375e5d1bd11cfdbbeb",
	"fig2":      "8acdaa9db1e4a3f12b22de3aaef3bf6a60e3f33530d9d3eccdf56c6feaf39c96",
	"fig3c":     "42592e0e9b1b71bada54b4e407809e8308845684ac1a4bca90b2491de96a4553",
	"fig4":      "6cbdc6e0b7236534eda9fe5ca426ed957fc36ef6a9eb03a52f51369dc2c06893",
	"fig5a":     "a1bcd493af391e5685d825913d4cd375a501bb900d7b3d69d0b1112821a5ea9b",
	"fig5b":     "49a9b8313a013c0a63a670e406a58a0506e79fe8d3bb7dc7fadf7fec169782cf",
	"fig6a":     "dae80eb531f6729d6a539d64072e0a6acaa482ad2def76d0e51e6ae1724ef6e6",
	"fig6b":     "cf4a271818e6ca709f656868dfd1ef182c4d47b226dc921ff2899ed06db4bdbe",
	"memclaim":  "0263733316474c9478bb8ac3f851320bfab3a1d87a6424cb9c05b04bbafa5151",
	"primes":    "ef336c6dd29c3908d065cd2efa7a233a9306a30298fc4584323de55ecfdb6b2a",
	"seeded":    "42ae649160638764b80e933d59ef35230b2541dc4e50decdcee2a523e86737e4",
	"table1":    "0ffaa4aa501f54ec0ac3221a473148b4afc8b761cad0d03a99ce6d9b10a0bfaf",
	"table2":    "afe388de5bf7feef3edb3ff091779d665908c7f41d77268c1e359777131d066c",
}

func TestRenderPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins taken on amd64")
	}
	for _, id := range IDs() {
		if id == "decode" || id == "swlanes" {
			continue
		}
		want, ok := renderPins[id]
		if !ok {
			t.Errorf("%s: no render pin", id)
			continue
		}
		r, err := Run(id, Options{Fast: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Render()))); got != want {
			t.Errorf("%s: render digest %s, want %s\n%s", id, got, want, r.Render())
		}
	}
}
