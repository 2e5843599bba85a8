package ftl

import (
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
