//go:build race

package ckks

// raceEnabled reports a -race build: sync.Pool drops objects at random
// under the race detector, so allocation counts there are not the
// program's and the allocation budgets skip.
const raceEnabled = true
