//go:build !scribble

package lanes

// scribbling is false in ordinary builds: the branch in PutMatrix is
// compiled out. Build with -tags scribble to turn it on (see scribble).
const scribbling = false
