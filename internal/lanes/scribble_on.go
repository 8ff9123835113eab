//go:build scribble

package lanes

// scribbling is true in builds with the scribble tag: PutMatrix then
// overwrites every matrix it takes back (see scribble).
const scribbling = true
