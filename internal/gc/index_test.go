package gc

import (
	"math/rand"
	"slices"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// indexTestGeom straddles 64-bit bitmap words (PagesPerBlock = 12) so the
// equivalence trace also exercises the packed-metadata boundary cases.
func indexTestGeom() nand.Geometry {
	return nand.Geometry{Channels: 2, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 12, PageSize: 4096}
}

// TestVictimIndexMatchesLinearScan is the equivalence bar of the
// incremental index: across randomized program / invalidate / erase /
// active-transition / snapshot-import traces, Victim must agree with the
// retained frozen linear-scan reference at every query time, under all
// three policies, and after every flush each internal node must equal a
// bottom-up rebuild from the leaves. Any divergence — scoring, tie-break,
// staleness, an ancestor left unpulled — fails here before it can move a
// golden table.
func TestVictimIndexMatchesLinearScan(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			g := indexTestGeom()
			fl := mustFlash(g)
			a := &fakeAlloc{fl: fl, active: -1}
			c := newTestController(fl, a, &fakeHost{}, kind)
			rng := rand.New(rand.NewSource(int64(len(kind)) * 7919))
			ppb := g.PagesPerBlock
			blocks := g.TotalBlocks()

			validPages := func() []nand.PPN {
				var out []nand.PPN
				for b := 0; b < blocks; b++ {
					out = fl.AppendValidPages(b, out)
				}
				return out
			}
			check := func(step int) {
				for _, now := range []nand.Time{0, nand.Time(rng.Int63n(int64(10 * nand.Second))), 1 << 50} {
					got, want := c.Victim(now), c.VictimLinearScan(now)
					if got != want {
						t.Fatalf("step %d now=%d: index victim %d, linear scan %d", step, now, got, want)
					}
				}
				if i, want := staleNode(c.idx); i != 0 {
					t.Fatalf("step %d: internal node %d is %+v after the flush, %+v rebuilt from the leaves", step, i, c.idx.nodes[i], want)
				}
			}

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // program the next page of a random non-full block
					blk := rng.Intn(blocks)
					wp := fl.BlockWritePtr(blk)
					if wp < ppb {
						p := nand.PPN(int64(blk)*int64(ppb) + int64(wp))
						if _, err := fl.Program(p, nand.OOB{Key: int64(rng.Intn(1 << 20)), Trans: rng.Intn(4) == 0},
							nand.Time(rng.Int63n(int64(5*nand.Second))), nand.OpHostData); err != nil {
							t.Fatal(err)
						}
					}
				case op < 8: // invalidate a random valid page
					if vp := validPages(); len(vp) > 0 {
						if err := fl.Invalidate(vp[rng.Intn(len(vp))]); err != nil {
							t.Fatal(err)
						}
					}
				case op < 9: // erase a random fully-stale block
					var cand []int
					for b := 0; b < blocks; b++ {
						if fl.BlockWritePtr(b) > 0 && fl.BlockValid(b) == 0 {
							cand = append(cand, b)
						}
					}
					if len(cand) > 0 {
						if _, err := fl.Erase(cand[rng.Intn(len(cand))], nand.Time(rng.Int63n(int64(5*nand.Second)))); err != nil {
							t.Fatal(err)
						}
					}
				default: // flip the active block (with hook notifications)
					if rng.Intn(3) == 0 {
						a.setActive(-1)
					} else {
						a.setActive(rng.Intn(blocks))
					}
				}
				if step%7 == 0 {
					check(step)
				}
				if step%501 == 500 {
					// Snapshot round-trip: the import marks every block
					// dirty and the controller resync re-probes actives.
					if err := fl.ImportState(fl.ExportState()); err != nil {
						t.Fatal(err)
					}
					c.Resync()
					check(step)
				}
			}
			st := c.IndexStats()
			if st.Selections == 0 || st.Examined == 0 {
				t.Fatalf("index never exercised: %+v", st)
			}
		})
	}
}

// staleNode returns the first internal node of x that differs from a
// bottom-up rebuild from the leaves, with the rebuilt value; 0 when none
// does.
func staleNode(x *victimIndex) (int, ixNode) {
	got := x.nodes
	x.nodes = slices.Clone(got)
	defer func() { x.nodes = got }()
	for i := x.size - 1; i >= 1; i-- {
		x.pull(i)
	}
	for i := 1; i < x.size; i++ {
		if got[i] != x.nodes[i] {
			return i, x.nodes[i]
		}
	}
	return 0, ixNode{}
}

// TestVictimIndexExaminesSublinear is the acceptance counter: on a device
// in steady GC-pressure state, a selection must score far fewer candidates
// than the block count the linear scan visits.
func TestVictimIndexExaminesSublinear(t *testing.T) {
	g := nand.Geometry{Channels: 4, Ways: 4, Planes: 1, BlocksPerUnit: 32, PagesPerBlock: 16, PageSize: 4096}
	fl := mustFlash(g)
	a := &fakeAlloc{fl: fl, active: -1}
	c := newTestController(fl, a, &fakeHost{}, Greedy)
	rng := rand.New(rand.NewSource(5))
	ppb := g.PagesPerBlock
	// Fill every block, then invalidate a random fraction of each.
	for b := 0; b < g.TotalBlocks(); b++ {
		for i := 0; i < ppb; i++ {
			p := nand.PPN(int64(b)*int64(ppb) + int64(i))
			if _, err := fl.Program(p, nand.OOB{Key: int64(i)}, 0, nand.OpHostData); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < ppb; i++ {
			if rng.Intn(3) == 0 {
				if err := fl.Invalidate(nand.PPN(int64(b)*int64(ppb) + int64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Steady state: repeated selections with incremental invalidations in
	// between, the pattern a GC-heavy workload produces.
	const selections = 200
	for i := 0; i < selections; i++ {
		if v := c.Victim(nand.Time(i) * nand.Millisecond); v < 0 {
			t.Fatal("no victim on a mostly-stale device")
		}
		blk := rng.Intn(g.TotalBlocks())
		if vp := fl.AppendValidPages(blk, nil); len(vp) > 0 {
			if err := fl.Invalidate(vp[rng.Intn(len(vp))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.IndexStats()
	perSelection := float64(st.Examined) / float64(st.Selections)
	if limit := float64(g.TotalBlocks()) / 4; perSelection >= limit {
		t.Fatalf("index examined %.1f candidates/selection, want < %.0f (device has %d blocks)",
			perSelection, limit, g.TotalBlocks())
	}
}

// TestInvalidateHookAllocFree pins the invalidation hot path at zero heap
// allocations: Flash.Invalidate plus the index's dirty marking must not
// allocate once the index's fixed-capacity queue exists.
func TestInvalidateHookAllocFree(t *testing.T) {
	g := indexTestGeom()
	fl := mustFlash(g)
	a := &fakeAlloc{fl: fl, active: -1}
	c := newTestController(fl, a, &fakeHost{}, CostBenefit)
	_ = c
	total := g.TotalPages()
	for p := 0; p < total; p++ {
		if _, err := fl.Program(nand.PPN(p), nand.OOB{Key: int64(p)}, 0, nand.OpHostData); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	const runs = 200
	if total < runs+2 {
		t.Fatalf("geometry too small for %d runs", runs)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := fl.Invalidate(nand.PPN(next)); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("invalidation hot path allocates %.1f times per op", allocs)
	}
}

// benchIndexDevice builds a 4096-block device under GC pressure: every
// block full, a random third of each block's pages stale.
func benchIndexDevice(b *testing.B, kind Kind) (*nand.Flash, *Controller) {
	b.Helper()
	g := nand.Geometry{Channels: 8, Ways: 8, Planes: 1, BlocksPerUnit: 64, PagesPerBlock: 32, PageSize: 4096}
	fl := mustFlash(g)
	a := &fakeAlloc{fl: fl, active: -1}
	c := NewController(fl, a, &fakeHost{}, stats.NewCollector(), MustPolicy(kind), 2, 0)
	a.onActive = c.ActiveChanged
	rng := rand.New(rand.NewSource(11))
	ppb := g.PagesPerBlock
	for blk := 0; blk < g.TotalBlocks(); blk++ {
		for i := 0; i < ppb; i++ {
			p := nand.PPN(int64(blk)*int64(ppb) + int64(i))
			if _, err := fl.Program(p, nand.OOB{Key: int64(i)}, nand.Time(rng.Int63n(int64(nand.Second))), nand.OpHostData); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < ppb; i++ {
			if rng.Intn(3) == 0 {
				if err := fl.Invalidate(nand.PPN(int64(blk)*int64(ppb) + int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return fl, c
}

// BenchmarkVictimSelect measures one victim selection through the
// incremental index on a 4096-block device, per policy, with the examined
// candidates per selection reported. Compare BenchmarkVictimLinearScan for
// what the historical full scan costs on the same state.
func BenchmarkVictimSelect(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			_, c := benchIndexDevice(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := c.Victim(nand.Time(i)); v < 0 {
					b.Fatal("no victim")
				}
			}
			b.StopTimer()
			st := c.IndexStats()
			b.ReportMetric(float64(st.Examined)/float64(st.Selections), "examined/op")
		})
	}
}

// BenchmarkVictimLinearScan is the baseline the index is judged against.
func BenchmarkVictimLinearScan(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			_, c := benchIndexDevice(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := c.VictimLinearScan(nand.Time(i)); v < 0 {
					b.Fatal("no victim")
				}
			}
		})
	}
}

// BenchmarkInvalidateHook measures the invalidation hot path with the
// victim index attached: Flash.Invalidate plus dirty marking. Must stay at
// 0 allocs/op — the index is fed on every host overwrite.
func BenchmarkInvalidateHook(b *testing.B) {
	g := nand.Geometry{Channels: 4, Ways: 4, Planes: 1, BlocksPerUnit: 32, PagesPerBlock: 64, PageSize: 4096}
	fl := mustFlash(g)
	a := &fakeAlloc{fl: fl, active: -1}
	c := NewController(fl, a, &fakeHost{}, stats.NewCollector(), MustPolicy(Greedy), 2, 0)
	a.onActive = c.ActiveChanged
	total := g.TotalPages()
	refill := func() {
		for blk := 0; blk < g.TotalBlocks(); blk++ {
			if fl.BlockWritePtr(blk) > 0 {
				if _, err := fl.Erase(blk, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		for p := 0; p < total; p++ {
			if _, err := fl.Program(nand.PPN(p), nand.OOB{Key: int64(p)}, 0, nand.OpHostData); err != nil {
				b.Fatal(err)
			}
		}
	}
	refill()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == total {
			b.StopTimer()
			refill()
			next = 0
			b.StartTimer()
		}
		if err := fl.Invalidate(nand.PPN(next)); err != nil {
			b.Fatal(err)
		}
		next++
	}
}
