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

// shape is one operation's key-switch tallies: ModDown halves closed,
// digit rows forward-transformed, and limbs forward-transformed inside
// ModDown's divide.
type shape struct{ halves, digitNTTs, modDownNTTs int }

// take returns the tallies since the last take and resets them.
func (c *switchCounts) take() shape {
	return shape{int(c.modDownHalves.Swap(0)), int(c.digitNTTs.Swap(0)), int(c.modDownNTTs.Swap(0))}
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
// per baby — and one domain-aware decomposition shared by the babies
// and one per nonzero giant step. Each giant's half stays in the NTT
// domain (ℓ forward NTTs inside its divide); the closing pair lands in the
// coefficient domain with none.
func ltWantCounts(p *Parameters, lt *LinearTransform) shape {
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
	return shape{giants + 2, decomps * decompNTTs(p, lt.Level, true), giants * lt.Level}
}

// TestSwitchCounts pins the key-switch shape with exact counts on
// bootstrap-shaped DFTs — Test (Levels 1) and PN13 (Levels 2, full
// depth) — under both backends at 1 and 8 workers: every transform of
// CoeffsToSlots and SlotsToCoeffs runs the counts ltWantCounts derives
// from its steps (and, summed, the literal totals below), the
// conjugation and MulRelin keep one paired ModDown each, MulRelin's
// decomposition skips its ℓ own-group transforms and the conjugation's
// does not. A closing ModDown half runs no forward NTT and a non-closing
// one ℓ. Outputs are byte-identical across the four configurations.
func TestSwitchCounts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		spec          ParamSpec
		levels        int
		c2s, s2c      shape // literal totals
		mulRelinLevel int
	}{
		{"Test", TestParams, 1, shape{17, 128, 60}, shape{17, 112, 45}, 4},
		{"PN13", PN13, 2, shape{18, 720, 154}, shape{18, 296, 98}, 12},
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
					check := func(what string, got, want shape) {
						t.Helper()
						if got != want {
							t.Fatalf("%s %s: %d ModDown halves, %d digit NTTs and %d ModDown NTTs, want %d, %d and %d",
								cfg, what, got.halves, got.digitNTTs, got.modDownNTTs, want.halves, want.digitNTTs, want.modDownNTTs)
						}
					}
					run := func(what string, lts []*LinearTransform, acc *Ciphertext, total shape) *Ciphertext {
						var sum shape
						for j, lt := range lts {
							acc = ev.LinearTransform(acc, lt, ks.Rot)
							got := counts.take()
							check(what+" transform "+string(rune('0'+j)), got, ltWantCounts(p, lt))
							sum = shape{sum.halves + got.halves, sum.digitNTTs + got.digitNTTs, sum.modDownNTTs + got.modDownNTTs}
						}
						check(what+" total", sum, total)
						return acc
					}

					acc := run("CoeffsToSlots", dft.C2S, ct, tc.c2s)
					cj := ev.RotateGalois(acc, ks.Conj)
					check("conjugation", counts.take(), shape{2, decompNTTs(p, acc.Level, false), 0})
					back := run("SlotsToCoeffs", dft.S2C, ev.Add(acc, cj), tc.s2c)
					sq := ev.MulRelin(ev.DropLevel(ct, tc.mulRelinLevel), ev.DropLevel(ct, tc.mulRelinLevel), ks.Rlk)
					check("MulRelin", counts.take(), shape{2, decompNTTs(p, tc.mulRelinLevel, true), 0})

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
func (lt *LinearTransform) encoded() bool { return lt.diagRows != nil }

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
