package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
)

func TestAllocPageOnChipPrefersChip(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	chip := 3
	p, ok := b.BM.AllocGCPageOnChip(chip, false)
	if !ok || b.Codec.Chip(p) != chip {
		t.Fatalf("AllocGCPageOnChip(3) gave chip %d", b.Codec.Chip(p))
	}
}

func TestAllocPageOnChipFallsBack(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	g := cfg.Geometry
	chip := 0
	// Exhaust chip 0 entirely: program every page of every block on it.
	blocksPerChip := g.Planes * g.BlocksPerUnit
	for blk := 0; blk < blocksPerChip; blk++ {
		for {
			p, ok := b.BM.AllocGCPageOnChip(chip, false)
			if !ok {
				t.Fatal("allocation failed before exhaustion")
			}
			if b.Codec.Chip(p) != chip {
				// Fallback already kicked in: chip exhausted.
				goto done
			}
			b.mustProgram(p, nand.OOB{}, 0, nand.OpHostData)
		}
	}
done:
	if got := b.BM.FreeBlocksOnChip(chip); got != 0 {
		t.Fatalf("chip still has %d free blocks", got)
	}
}

func TestSeparateTransAndDataStreams(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	pd, _ := b.BM.AllocPage(false)
	b.mustProgram(pd, nand.OOB{Key: 1}, 0, nand.OpHostData)
	pt, _ := b.BM.AllocPage(true)
	if b.Codec.BlockID(pd) == b.Codec.BlockID(pt) {
		t.Fatal("data and translation pages share a block")
	}
}

func TestScanOrderIsChannelFastest(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	g := cfg.Geometry
	// On an idle device, consecutive allocations walk channels first.
	for i := 0; i < g.Chips(); i++ {
		p, ok := b.BM.AllocPage(false)
		if !ok {
			t.Fatal("alloc failed")
		}
		a := b.Codec.Decode(p)
		wantCh := i % g.Channels
		wantWay := i / g.Channels
		if a.Channel != wantCh || a.Way != wantWay {
			t.Fatalf("alloc %d went to ch%d/way%d, want ch%d/way%d",
				i, a.Channel, a.Way, wantCh, wantWay)
		}
		b.mustProgram(p, nand.OOB{Key: int64(i)}, 0, nand.OpHostData)
	}
}

func TestVictimBlockSkipsZeroGain(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	g := cfg.Geometry
	// Fill one block entirely with valid pages: no victim should emerge.
	for i := 0; i < g.PagesPerBlock; i++ {
		b.mustProgram(nand.PPN(i), nand.OOB{Key: int64(i)}, 0, nand.OpHostData)
	}
	if v := b.GC.Victim(0); v != -1 {
		t.Fatalf("all-valid block chosen as victim: %d", v)
	}
	// One invalidation makes it eligible.
	if err := b.Fl.Invalidate(nand.PPN(0)); err != nil {
		t.Fatal(err)
	}
	if v := b.GC.Victim(0); v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
}

func TestSortRelocateOrdersByLPN(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	b.SortRelocate = true
	g := cfg.Geometry
	// Fill block 0 with descending LPNs, invalidate one page to allow GC.
	for i := 0; i < g.PagesPerBlock; i++ {
		b.mustProgram(nand.PPN(i), nand.OOB{Key: int64(g.PagesPerBlock - i)}, 0, nand.OpHostData)
		b.L2P.Set(int64(g.PagesPerBlock-i), nand.PPN(i))
	}
	if err := b.Fl.Invalidate(nand.PPN(0)); err != nil {
		t.Fatal(err)
	}
	b.L2P.Set(int64(g.PagesPerBlock), nand.InvalidPPN)
	done, ok := b.GC.CollectOnce(0)
	if !ok || done <= 0 {
		t.Fatal("GC did not run")
	}
	// Relocated pages must now sit at ascending VPPNs in LPN order.
	var prevV nand.VPPN = -1
	for lpn := int64(1); lpn < int64(g.PagesPerBlock); lpn++ {
		p := b.L2P.Get(lpn)
		if p == nand.InvalidPPN {
			t.Fatalf("lpn %d lost", lpn)
		}
		v := b.Codec.ToVirtual(p)
		if v <= prevV {
			t.Fatalf("lpn %d: VPPN %d not ascending after sorted relocation", lpn, v)
		}
		prevV = v
	}
}

func TestRunGCRespectsLowWater(t *testing.T) {
	cfg := testConfig()
	cfg.GCLowWater = 5
	b, _ := NewBase(cfg)
	// Consume blocks with translation churn until below the watermark,
	// then let RunGC restore it.
	now := nand.Time(0)
	for b.BM.FreeBlocks() > cfg.GCLowWater {
		now = b.UpdateTrans(0, false, now)
	}
	now = b.RunGC(now)
	if b.BM.FreeBlocks() <= cfg.GCLowWater {
		t.Fatalf("free blocks %d still at/below watermark %d",
			b.BM.FreeBlocks(), cfg.GCLowWater)
	}
}

// predicateFirstLeastBusy is the chip allocLeastBusy picks, by the scan it
// was first written as: every chip is checked for space, then the least busy
// of those wins, the first in scanOrder on ties. -1 when none has space.
func predicateFirstLeastBusy(b *BlockMan, trans, gcAlloc bool) int {
	best := -1
	var bestBusy nand.Time
	for _, chip := range b.scanOrder {
		if !b.chipHasSpace(chip, trans, gcAlloc) {
			continue
		}
		busy := b.f.ChipBusyUntil(chip)
		if best == -1 || busy < bestBusy {
			best, bestBusy = chip, busy
		}
	}
	return best
}

// TestAllocLeastBusyMatchesPredicateFirstScan: the allocator's lazily
// refreshed chip tournaments pick the chip the predicate-first scan picks,
// over random busy times — from a few values, so ties are common — and
// random space: chips filled to their last block, blocks erased back into
// the pool (a full chip regaining room), both streams, host and GC
// allocations, and the device's reserved last block. Between allocations
// the chip clocks also move behind the allocator's back: reads advance
// single chips, AdvanceIdle moves them all forward, PowerCycle sets them
// all to an earlier time, and ImportState loads the same array with every
// clock redrawn, some earlier and some later.
func TestAllocLeastBusyMatchesPredicateFirstScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBase(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		ppb := b.Cfg.Geometry.PagesPerBlock
		program := func(p nand.PPN) {
			b.mustProgram(p, nand.OOB{}, nand.Time(rng.Intn(4))*nand.Time(rng.Intn(1e6)), nand.OpHostData)
		}
		var full []int // programmed, inactive blocks: erasable
		noteFull := func(p nand.PPN) {
			if blk := b.Codec.BlockID(p); b.Fl.BlockFreePages(blk) == 0 {
				full = append(full, blk)
			}
		}
		allocs, fails := 0, 0
		for step := 0; step < 3000; step++ {
			trans, gcAlloc := rng.Intn(2) == 0, rng.Intn(4) == 0
			switch op := rng.Intn(14); {
			case op == 10: // a read advances one chip's clock
				blk := rng.Intn(b.Cfg.Geometry.TotalBlocks())
				if b.Fl.BlockWritePtr(blk) > 0 {
					b.Fl.Read(b.Codec.BlockBase(blk), nand.Time(rng.Intn(4))*nand.Time(rng.Intn(1e6)), nand.OpHostData)
				}
			case op == 11 && step%5 == 0: // every chip idles forward
				b.Fl.AdvanceIdle(nand.Time(rng.Intn(1e6)))
			case op == 11: // every chip restarts at an earlier time
				b.Fl.PowerCycle(nand.Time(rng.Int63n(int64(b.Fl.MaxChipBusy()) + 1)))
			case op == 12: // the same array, every clock redrawn
				st := b.Fl.ExportState()
				for i := range st.ChipBusy {
					st.ChipBusy[i] = nand.Time(rng.Int63n(int64(b.Fl.MaxChipBusy())/2+1) * 3)
				}
				if err := b.Fl.ImportState(st); err != nil {
					t.Fatal(err)
				}
			case op == 0 && len(full) > 0: // erase a block back into the pool
				i := rng.Intn(len(full))
				blk := full[i]
				full[i] = full[len(full)-1]
				full = full[:len(full)-1]
				if b.BM.IsActive(blk) {
					continue
				}
				base := int64(blk) * int64(ppb)
				for p := base; p < base+int64(ppb); p++ {
					if err := b.Fl.Invalidate(nand.PPN(p)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := b.Fl.Erase(blk, 0); err != nil {
					t.Fatal(err)
				}
				b.BM.Release(blk)
			case op <= 2: // fill one chip's active block
				chip := rng.Intn(b.Cfg.Geometry.Chips())
				for k := 0; k < ppb; k++ {
					if !b.BM.chipHasSpace(chip, trans, true) {
						break
					}
					p, _ := b.BM.AllocGCPageOnChip(chip, trans)
					program(p)
					noteFull(p)
				}
			default:
				want := predicateFirstLeastBusy(b.BM, trans, gcAlloc)
				p, ok := b.BM.allocLeastBusy(trans, gcAlloc)
				if !ok {
					if want != -1 {
						t.Fatalf("seed %d step %d: allocation failed, the reference picks chip %d", seed, step, want)
					}
					fails++
					continue
				}
				if got := b.Codec.Chip(p); got != want {
					t.Fatalf("seed %d step %d: allocated on chip %d, the reference picks %d", seed, step, got, want)
				}
				allocs++
				program(p)
				noteFull(p)
			}
		}
		if allocs == 0 || fails == 0 {
			t.Fatalf("seed %d: %d allocations, %d failures: want both", seed, allocs, fails)
		}
	}
}

// BenchmarkOverwriteByChips is one random single-page overwrite of a full
// ideal-FTL device — least-busy allocation, program, invalidation and the
// garbage collection it triggers — on the repository benchmark's device
// (4×4 chips of 32 blocks of 512 pages, 35 % over-provisioning) and on the
// same chips in the paper's 8×8 array: the write path's cost against the
// chip count the allocator's pick scales with. Sixteen writers keep one
// write each outstanding, so chip clocks differ the way a closed loop
// leaves them.
func BenchmarkOverwriteByChips(b *testing.B) {
	for _, side := range []int{4, 8} {
		b.Run(fmt.Sprintf("chips=%d", side*side), func(b *testing.B) {
			g := nand.Geometry{Channels: side, Ways: side, Planes: 1, BlocksPerUnit: 32, PagesPerBlock: 512, PageSize: 4096}
			cfg := DefaultConfig(g)
			cfg.GroupEntries = 12
			cfg.OPRatio = 0.35
			f, err := NewIdeal(cfg)
			if err != nil {
				b.Fatal(err)
			}
			lp := f.Cfg.LogicalPages()
			var ready [16]nand.Time
			for l := int64(0); l < lp; l++ {
				ready[l%16] = f.WritePages(l, 1, ready[l%16])
			}
			rng := rand.New(rand.NewSource(1))
			for i := int64(0); i < lp; i++ {
				ready[i%16] = f.WritePages(rng.Int63n(lp), 1, ready[i%16])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ready[i%16] = f.WritePages(rng.Int63n(lp), 1, ready[i%16])
			}
			b.StopTimer()
			if f.Col.DeviceFailed || f.Col.GCCount == 0 {
				b.Fatalf("failed %v (%s) after %d collections: the window must collect and never fail", f.Col.DeviceFailed, f.Col.FailReason, f.Col.GCCount)
			}
		})
	}
}
