package nand

import (
	"math/rand"
	"testing"
)

// nopObserver drops every operation. Attached, it hooks the array, so every
// operation takes the outlined tail, and changes nothing else.
type nopObserver struct{}

func (nopObserver) ObserveOp(FlashOp) {}

// TestFastCoreMatchesHookedTail drives one seeded stream of reads,
// programs, invalidates and erases through a bare array, whose operations
// take the inlined core alone, and through one with a no-op observer
// attached, whose operations take the hooked tail. After every operation
// the two must agree on the returned time, verdict and error, on Counters,
// every chip clock and MaxChipBusy, on every page's state and OOB key, and
// on every block's metadata. It runs on a power-of-two geometry, whose
// codec shifts, and on one whose codec multiplies.
func TestFastCoreMatchesHookedTail(t *testing.T) {
	odd := Geometry{Channels: 3, Ways: 1, Planes: 2, BlocksPerUnit: 5, PagesPerBlock: 24, PageSize: 4096}
	for _, g := range []Geometry{testGeom(), odd} {
		bare, hooked := mustFlash(g), mustFlash(g)
		hooked.SetOpObserver(nopObserver{})
		if bare.hooked || !hooked.hooked {
			t.Fatalf("%v: bare array hooked %v, observed one %v", g, bare.hooked, hooked.hooked)
		}
		rng := rand.New(rand.NewSource(46))
		ppb := g.PagesPerBlock
		for step := 0; step < 3000; step++ {
			// Issue times up to a little past the latest clock: some
			// operations wait for their chip, some start at once.
			after := Time(rng.Int63n(int64(bare.MaxChipBusy() + Millisecond)))
			kind := OpKind(rng.Intn(int(opKinds)))
			blk := rng.Intn(g.TotalBlocks())
			p := PPN(blk*ppb + rng.Intn(ppb))
			var d1, d2 Time
			var e1, e2 error
			switch rng.Intn(4) {
			case 0:
				if bare.BlockFreePages(blk) == 0 {
					continue
				}
				p = PPN(blk*ppb + bare.BlockWritePtr(blk))
				oob := OOB{Key: rng.Int63n(int64(g.TotalPages())), Trans: rng.Intn(4) == 0}
				d1, e1 = bare.Program(p, oob, after, kind)
				d2, e2 = hooked.Program(p, oob, after, kind)
			case 1:
				var o1, o2 ReadOutcome
				d1, o1 = bare.ReadChecked(p, after, kind)
				d2, o2 = hooked.ReadChecked(p, after, kind)
				if o1 != o2 {
					t.Fatalf("%v step %d: read verdicts %+v and %+v", g, step, o1, o2)
				}
			case 2:
				e1, e2 = bare.Invalidate(p), hooked.Invalidate(p)
			case 3:
				// Empty the block first half the time, so most erases run.
				if rng.Intn(2) == 0 {
					for _, q := range bare.AppendValidPages(blk, nil) {
						if bare.Invalidate(q) != nil || hooked.Invalidate(q) != nil {
							t.Fatalf("%v step %d: invalidate of valid page %d failed", g, step, q)
						}
					}
				}
				d1, e1 = bare.Erase(blk, after)
				d2, e2 = hooked.Erase(blk, after)
			}
			if d1 != d2 || (e1 == nil) != (e2 == nil) || e1 != nil && e1.Error() != e2.Error() {
				t.Fatalf("%v step %d: bare returned %d, %v; hooked %d, %v", g, step, d1, e1, d2, e2)
			}
			sameArrays(t, g, step, bare, hooked)
		}
	}
}

// sameArrays fails the test unless a and b agree on everything an
// operation can change.
func sameArrays(t *testing.T, g Geometry, step int, a, b *Flash) {
	t.Helper()
	if a.Counters() != b.Counters() || a.MaxChipBusy() != b.MaxChipBusy() {
		t.Fatalf("%v step %d: counters %+v and %+v, latest clocks %d and %d",
			g, step, a.Counters(), b.Counters(), a.MaxChipBusy(), b.MaxChipBusy())
	}
	for c := 0; c < g.Chips(); c++ {
		if a.ChipBusyUntil(c) != b.ChipBusyUntil(c) {
			t.Fatalf("%v step %d: chip %d clocks %d and %d", g, step, c, a.ChipBusyUntil(c), b.ChipBusyUntil(c))
		}
	}
	for p := PPN(0); p < PPN(g.TotalPages()); p++ {
		if a.State(p) != b.State(p) || a.PageOOB(p) != b.PageOOB(p) {
			t.Fatalf("%v step %d: page %d is %v %+v and %v %+v",
				g, step, p, a.State(p), a.PageOOB(p), b.State(p), b.PageOOB(p))
		}
	}
	for blk := range g.TotalBlocks() {
		if a.blocks[blk] != b.blocks[blk] {
			t.Fatalf("%v step %d: block %d is %+v and %+v", g, step, blk, a.blocks[blk], b.blocks[blk])
		}
	}
}

// TestHookFlagFollowsItsConditions calls each writer of the hook flag's
// inputs and checks that the flag is then set exactly when an op observer,
// a fault model, an armed cut or a torn page is present. A torn page alone
// must hook the array: on the bare path it would read clean.
func TestHookFlagFollowsItsConditions(t *testing.T) {
	f := newTestFlash(t)
	snap := f.ExportState()
	steps := []struct {
		name   string
		do     func()
		hooked bool
	}{
		{"new array", func() {}, false},
		{"observer attached", func() { f.SetOpObserver(nopObserver{}) }, true},
		{"observer detached", func() { f.SetOpObserver(nil) }, false},
		{"fault model attached", func() { f.SetFaultModel(ladderStub{}) }, true},
		{"fault model detached", func() { f.SetFaultModel(nil) }, false},
		{"cut armed", func() { f.ArmCut(5, 0, false) }, true},
		{"cut disarmed", func() { f.DisarmCut() }, false},
		{"cut armed again", func() { f.ArmCut(0, Second, true) }, true},
		{"power cycled", func() { f.PowerCycle(0) }, false},
		{"page torn", func() { f.markTorn(3) }, true},
		{"torn block cleared", func() { f.clearTornBlock(0) }, false},
		{"page torn again", func() { f.markTorn(3) }, true},
		{"state imported", func() {
			if err := f.ImportState(snap); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"observer attached, state imported", func() {
			f.SetOpObserver(nopObserver{})
			if err := f.ImportState(snap); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, s := range steps {
		s.do()
		present := f.opObs != nil || f.fm != nil || f.cut != nil || len(f.torn) > 0
		if f.hooked != s.hooked || present != s.hooked {
			t.Fatalf("%s: hooked %v, a hook present %v, want %v", s.name, f.hooked, present, s.hooked)
		}
		if s.name == "page torn" {
			if _, out := f.ReadChecked(3, 0, OpMount); !out.Uncorrectable {
				t.Fatal("a torn page read clean on an array with nothing else attached")
			}
		}
	}
}
