package ckks

import (
	"sync"
	"testing"

	"repro/internal/lanes"
)

// countSwitches installs a fresh key-switch tally on p for the rest of
// the test. Production code never sets Parameters.counts.
func countSwitches(t *testing.T, p *Parameters) *switchCounts {
	c := &switchCounts{}
	p.counts = c
	t.Cleanup(func() { p.counts = nil })
	return c
}

// take returns the tallies since the last take and resets them.
func (c *switchCounts) take() (modDownHalves, digitNTTs int) {
	return int(c.modDownHalves.Swap(0)), int(c.digitNTTs.Swap(0))
}

// decompNTTs is the forward-NTT count of one decomposition at `level`:
// β(ℓ+k) digit rows, less the ℓ own-group rows when the input's NTT form
// is supplied.
func decompNTTs(p *Parameters, level int, nttCopy bool) int {
	n := p.DnumAt(level) * (level + p.SpecialLimbs)
	if nttCopy {
		n -= level
	}
	return n
}

// ltWantCounts is the double-hoisted schedule's shape for lt: one
// single-half ModDown per nonzero giant step plus the closing pair — none
// per baby — and one domain-aware decomposition for the shared baby hoist
// and one per nonzero giant step.
func ltWantCounts(p *Parameters, lt *LinearTransform) (halves, ntts int) {
	giants, babies := 0, 0
	for _, g := range lt.giantSteps {
		if g != 0 {
			giants++
		}
	}
	for _, b := range lt.babySteps {
		if b != 0 {
			babies++
		}
	}
	decomps := giants
	if babies > 0 {
		decomps++
	}
	return giants + 2, decomps * decompNTTs(p, lt.Level, true)
}

// TestSwitchCounts pins the key-switch shape with exact counts on
// bootstrap-shaped DFTs — Test (Levels 1) and PN13 (Levels 2, full
// depth) — under both backends at 1 and 8 workers: every transform of
// CoeffsToSlots and SlotsToCoeffs runs the counts ltWantCounts derives
// from its steps (and, summed, the literal totals below), the
// conjugation and MulRelin keep one paired ModDown each, MulRelin's
// decomposition skips its ℓ own-group transforms and the conjugation's
// does not. Outputs are byte-identical across the four configurations.
func TestSwitchCounts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		spec          ParamSpec
		levels        int
		c2s, s2c      [2]int // literal totals: ModDown halves, digit NTTs
		mulRelinLevel int
	}{
		{"Test", TestParams, 1, [2]int{17, 128}, [2]int{17, 112}, 4},
		{"PN13", PN13, 2, [2]int{18, 720}, [2]int{18, 296}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec.LogN > 10 && testing.Short() {
				t.Skip("PN13 key generation")
			}
			p := tc.spec.MustBuild()
			defer p.Close()
			kg := NewKeyGenerator(p, testSeed())
			sk, pk := kg.GenKeyPair()
			enc := NewEncoder(p)
			start := p.MaxLevel()
			dft := enc.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: start, Levels: tc.levels})
			ks := kg.GenEvaluationKeySet(sk, start, dft.Rotations(), true, GadgetHybrid)
			ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 61)))

			var ref []*Ciphertext
			for _, b := range []lanes.Backend{lanes.Portable, lanes.Fast} {
				for _, workers := range []int{1, 8} {
					p.SetBackend(b)
					p.SetWorkers(workers)
					cfg := b.Name() + "/workers=" + string(rune('0'+workers))
					counts := countSwitches(t, p)
					ev := NewEvaluator(p)
					check := func(what string, gotH, gotN, wantH, wantN int) {
						t.Helper()
						if gotH != wantH || gotN != wantN {
							t.Fatalf("%s %s: %d ModDown halves and %d digit NTTs, want %d and %d",
								cfg, what, gotH, gotN, wantH, wantN)
						}
					}
					run := func(what string, lts []*LinearTransform, acc *Ciphertext, total [2]int) *Ciphertext {
						sumH, sumN := 0, 0
						for j, lt := range lts {
							acc = ev.LinearTransform(acc, lt, ks.Rot)
							h, n := counts.take()
							wantH, wantN := ltWantCounts(p, lt)
							check(what+" transform "+string(rune('0'+j)), h, n, wantH, wantN)
							sumH, sumN = sumH+h, sumN+n
						}
						check(what+" total", sumH, sumN, total[0], total[1])
						return acc
					}

					acc := run("CoeffsToSlots", dft.C2S, ct, tc.c2s)
					cj := ev.RotateGalois(acc, ks.Conj)
					h, n := counts.take()
					check("conjugation", h, n, 2, decompNTTs(p, acc.Level, false))
					back := run("SlotsToCoeffs", dft.S2C, ev.Add(acc, cj), tc.s2c)
					sq := ev.MulRelin(ev.DropLevel(ct, tc.mulRelinLevel), ev.DropLevel(ct, tc.mulRelinLevel), ks.Rlk)
					h, n = counts.take()
					check("MulRelin", h, n, 2, decompNTTs(p, tc.mulRelinLevel, true))

					got := []*Ciphertext{acc, back, sq}
					if ref == nil {
						ref = got
						continue
					}
					for i := range got {
						rl := p.RingAt(got[i].Level)
						if !rl.Equal(got[i].C0, ref[i].C0) || !rl.Equal(got[i].C1, ref[i].C1) {
							t.Fatalf("%s: output %d differs from the portable single-worker bytes", cfg, i)
						}
					}
				}
			}
		})
	}
}

// encoded reports whether lt's diagonals have been encoded.
func (lt *LinearTransform) encoded() bool {
	for _, terms := range lt.groups {
		return terms[0].poly != nil
	}
	return false
}

// TestLinearTransformEncodesOnFirstUse: building a DFT encodes no
// diagonal; eight concurrent CoeffsToSlots calls on a fresh DFT encode
// its CoeffsToSlots transforms once, all return a sequential run's bytes,
// and the never-applied SlotsToCoeffs direction stays unencoded.
func TestLinearTransformEncodesOnFirstUse(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	sk, pk := kg.GenKeyPair()
	enc := NewEncoder(p)
	ev := NewEvaluator(p)
	cfg := HomomorphicDFTConfig{StartLevel: p.MaxLevel(), Levels: 1}
	seq := enc.NewHomomorphicDFT(cfg)
	ks := kg.GenEvaluationKeySet(sk, cfg.StartLevel, seq.Rotations(), true, GadgetHybrid)
	ct := NewEncryptor(p, pk, testSeed()).Encrypt(enc.Encode(randMsg(p, 0, 62)))
	wantRe, wantIm := ev.CoeffsToSlots(ct, seq, ks.Rot, ks.Conj)

	dft := enc.NewHomomorphicDFT(cfg)
	for _, lt := range append(append([]*LinearTransform(nil), dft.C2S...), dft.S2C...) {
		if lt.encoded() {
			t.Fatal("NewHomomorphicDFT encoded a diagonal before any evaluation")
		}
	}
	const callers = 8
	var wg sync.WaitGroup
	res := make([][2]*Ciphertext, callers)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			re, im := ev.CoeffsToSlots(ct, dft, ks.Rot, ks.Conj)
			res[i] = [2]*Ciphertext{re, im}
		}()
	}
	wg.Wait()
	rl := p.RingAt(dft.MidLevel)
	for i, r := range res {
		for h, want := range []*Ciphertext{wantRe, wantIm} {
			if !rl.Equal(r[h].C0, want.C0) || !rl.Equal(r[h].C1, want.C1) {
				t.Fatalf("caller %d output %d differs from the sequential run", i, h)
			}
		}
	}
	for _, lt := range dft.C2S {
		if !lt.encoded() {
			t.Fatal("an applied CoeffsToSlots transform is not encoded")
		}
	}
	for _, lt := range dft.S2C {
		if lt.encoded() {
			t.Fatal("the never-applied SlotsToCoeffs direction was encoded")
		}
	}
}
