package abcfhe

import (
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"testing"
)

// The suite's memory contract on a 16 GB CI box. The soft limit makes the
// collector reclaim the multi-GB key sets of the PN15/PN16 tests as soon
// as they die instead of letting GOGC=100 double the heap over them; the
// hard budget fails the run if the process footprint still grew past it,
// so a test that starts holding two key sets again cannot pass silently.
const (
	testMemoryLimit  = 7 << 30       // debug.SetMemoryLimit
	testMemoryBudget = 9_500_000_000 // bytes the runtime may ever have mapped
)

func TestMain(m *testing.M) {
	debug.SetMemoryLimit(testMemoryLimit)
	code := m.Run()
	// total:bytes counts every byte the runtime has mapped, released-to-OS
	// spans included, and mappings are reused rather than returned — so its
	// final value is the high-water mark of the process's Go footprint.
	peak := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(peak)
	got := peak[0].Value.Uint64()
	fmt.Fprintf(os.Stderr, "peak runtime memory %d MB (budget %d MB)\n", got/1_000_000, testMemoryBudget/1_000_000)
	if got > testMemoryBudget && code == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: over the memory budget")
		code = 1
	}
	os.Exit(code)
}
