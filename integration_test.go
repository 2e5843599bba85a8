package learnedftl

import (
	"math/rand"
	"testing"

	"learnedftl/internal/core"
	ftlpkg "learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// TestReadLatencyArithmetic pins the exact virtual latencies of the read
// classes on an idle single-threaded device: a CMT hit costs one NAND read,
// a demand miss costs two serialized reads, a LearnedFTL model hit costs one
// read plus the prediction CPU time.
func TestReadLatencyArithmetic(t *testing.T) {
	cfg := TinyConfig()
	rd := cfg.Timing.ReadLatency

	// DFTL: miss then hit.
	d, err := New(SchemeDFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := d.WritePages(0, 1, 0)
	// Push LPN 0 out of the CMT by touching many others, then read them all
	// so every cached entry is clean (a dirty eviction would add a
	// translation RMW to the measured miss).
	span := int64(cfg.CMTEntriesFor(cfg.CMTRatio)) + 4
	for i := int64(1); i <= span; i++ {
		now = d.WritePages(i, 1, now)
	}
	for pass := 0; pass < 2; pass++ {
		for i := int64(1); i <= span; i++ {
			now = d.ReadPages(i, 1, now)
		}
	}
	idle := d.Flash().MaxChipBusy()
	done := d.ReadPages(0, 1, idle)
	if done-idle != 2*rd {
		t.Fatalf("DFTL miss latency = %d, want %d (double read)", done-idle, 2*rd)
	}
	idle = d.Flash().MaxChipBusy()
	done = d.ReadPages(0, 1, idle)
	if done-idle != rd {
		t.Fatalf("DFTL hit latency = %d, want %d", done-idle, rd)
	}

	// LearnedFTL: model hit = read + prediction cost.
	ld, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now = ld.WritePages(0, 16, 0)
	// Evict from the (tiny) CMT so the model path is taken.
	for i := int64(100); i <= int64(cfg.CMTEntriesFor(cfg.CMTRatio/2))+104; i++ {
		now = ld.WritePages(i, 1, now)
	}
	idle = ld.Flash().MaxChipBusy()
	done = ld.ReadPages(3, 1, idle)
	if done-idle != rd+cfg.Learned.PredictCost {
		t.Fatalf("model-hit latency = %d, want %d", done-idle, rd+cfg.Learned.PredictCost)
	}
	if ld.Collector().ModelHits == 0 {
		t.Fatal("model path not taken")
	}
}

// TestWriteLatencyArithmetic pins a host write to one program on an idle
// device (plus nothing else for the ideal FTL).
func TestWriteLatencyArithmetic(t *testing.T) {
	cfg := TinyConfig()
	f, err := New(SchemeIdeal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := f.WritePages(0, 1, 0)
	if done != cfg.Timing.ProgramLatency {
		t.Fatalf("write latency = %d, want %d", done, cfg.Timing.ProgramLatency)
	}
}

// TestCrossFTLMappedSetEquivalence runs one identical workload across all
// five schemes and checks they agree on exactly which LPNs hold data — the
// FTLs may place pages differently but must implement the same logical
// store.
func TestCrossFTLMappedSetEquivalence(t *testing.T) {
	cfg := TinyConfig()
	lp := cfg.LogicalPages()
	mk := func() []sim.Generator {
		rng := rand.New(rand.NewSource(31))
		n := 0
		return []sim.Generator{sim.GenFunc(func() (sim.Request, bool) {
			if n >= 3000 {
				return sim.Request{}, false
			}
			n++
			w := rng.Intn(3) > 0
			pages := 1 + rng.Intn(16)
			lpn := rng.Int63n(lp - int64(pages))
			return sim.Request{Write: w, LPN: lpn, Pages: pages}, true
		})}
	}
	type mappedFn interface{ Mapped(int64) bool }
	var ref []bool
	for _, s := range Schemes() {
		f, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(f, mk(), 0)
		// LeaFTL buffers some writes in DRAM; flush them to flash state by
		// checking via the scheme's own Mapped (which includes buffered
		// data through L2P only after flush) — so compare through reads
		// instead: Mapped must be identical because every scheme updates
		// its shadow map at the same workload step… except LeaFTL's buffer.
		m, ok := any(f).(mappedFn)
		if !ok {
			t.Fatalf("%v does not expose Mapped", s)
		}
		got := make([]bool, lp)
		for l := int64(0); l < lp; l++ {
			got[l] = m.Mapped(l)
		}
		if s == SchemeLeaFTL {
			// Buffered-but-unflushed LPNs are not in LeaFTL's L2P yet;
			// skip exact comparison for those.
			continue
		}
		if ref == nil {
			ref = got
			continue
		}
		for l := int64(0); l < lp; l++ {
			if got[l] != ref[l] {
				t.Fatalf("%v: mapped(%d) = %v differs from reference", s, l, got[l])
			}
		}
	}
}

// TestFullyLiveGroupGCRegression reproduces the warm-up pattern that wedged
// the group allocator: completely live groups (every LPN mapped) under
// 512KB-aligned random overwrites, where compaction leaves zero slack in the
// fresh superblock and foreign-page evacuation must bootstrap from a single
// scratch row.
func TestFullyLiveGroupGCRegression(t *testing.T) {
	cfg := TinyConfig()
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	gens := workload.Warmup(lp, 3, 128, 1)
	res := sim.Run(f, gens, 0)
	if res.Requests == 0 {
		t.Fatal("no requests")
	}
	if f.Collector().GCCount == 0 {
		t.Fatal("warm-up triggered no group GC")
	}
	// Every LPN must still be mapped and coherent.
	for l := int64(0); l < lp; l++ {
		if !f.Mapped(l) {
			t.Fatalf("lpn %d lost", l)
		}
	}
}

// TestMultiThreadTailLatencyIncludesGC checks that foreground GC shows up in
// the tail: with heavy random writes, P99.9 write latency must exceed the
// basic program latency by a wide margin for the block-GC FTLs.
func TestMultiThreadTailLatencyIncludesGC(t *testing.T) {
	cfg := TinyConfig()
	f, err := New(SchemeTPFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 1, 128, 1), 0)
	sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 16, 800, 5), 0)
	col := f.Collector()
	if col.GCCount == 0 {
		t.Skip("no GC in window")
	}
	if col.WritePercentile(99.9) < 4*cfg.Timing.ProgramLatency {
		t.Fatalf("P99.9 write = %v does not reflect GC pauses", col.WritePercentile(99.9))
	}
}

// TestEnergyMonotonicity: more flash work ⇒ more energy, never less.
func TestEnergyMonotonicity(t *testing.T) {
	cfg := TinyConfig()
	f, _ := New(SchemeIdeal, cfg)
	lp := cfg.LogicalPages()
	sim.Run(f, workload.FIO(workload.SeqWrite, lp, 8, 4, 100, 1), 0)
	cv := f.Flash().Counters()
	e1 := cv.EnergyNJ(cfg.Energy)
	sim.Run(f, workload.FIO(workload.RandRead, lp, 1, 4, 100, 2), 0)
	cv = f.Flash().Counters()
	e2 := cv.EnergyNJ(cfg.Energy)
	if e2 <= e1 {
		t.Fatalf("energy did not grow: %d -> %d", e1, e2)
	}
}

// TestChannelFastScanOrder verifies dynamic allocation issues pages in
// channel-fastest order on an idle device, which is what makes the VPPNs of
// a striped write contiguous (the property LeaFTL's segments and the VPPN
// representation rely on).
func TestChannelFastScanOrder(t *testing.T) {
	cfg := TinyConfig()
	f, err := ftlpkg.NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chips := cfg.Geometry.Chips()
	f.WritePages(0, chips, 0)
	codec := nand.NewAddrCodec(cfg.Geometry)
	for i := 1; i < chips; i++ {
		prev := codec.ToVirtual(f.L2P.Get(int64(i - 1)))
		cur := codec.ToVirtual(f.L2P.Get(int64(i)))
		if cur != prev+1 {
			t.Fatalf("page %d: VPPN %d not contiguous with %d", i, cur, prev)
		}
	}
}
