package ftl

import (
	"math/rand"
	"testing"

	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
)

// TestFillToCapacityNeverPanics is the regression test for the old gcOnce
// panic ("GC relocation allocation failed"): with the tightest legal
// watermark, filling the device to full logical capacity and then
// overwriting it several times over must never wedge — the block manager's
// reserved free block guarantees every collection completes, and the
// graceful ErrNoSpace path covers the rest.
func TestFillToCapacityNeverPanics(t *testing.T) {
	cfg := testConfig()
	cfg.GCLowWater = 2 // the minimum Validate accepts
	f, err := NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	now := nand.Time(0)
	// Sequential fill to 100% of logical capacity.
	for lpn := int64(0); lpn < lp; lpn++ {
		now = f.WritePages(lpn, 1, now)
	}
	// Random single-page overwrites, three capacities deep — the state
	// with the fewest invalid pages per block, where relocation is most
	// expensive and the old collector was closest to the panic.
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < 3*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.BM.FreeBlocks() < 1 {
		t.Fatalf("free pool exhausted: %d", f.BM.FreeBlocks())
	}
	if err := f.GC.LastErr(); err != nil {
		t.Fatalf("GC reported %v on a device within capacity", err)
	}
	for lpn := int64(0); lpn < lp; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost", lpn)
		}
	}
}

// TestHostAllocationLeavesGCReserve pins the invariant directly: the host
// paths may not open the device's last free block; the GC paths may.
func TestHostAllocationLeavesGCReserve(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	g := cfg.Geometry
	// Drain the pool to one free block by filling host-allocated pages.
	for b.BM.FreeBlocks() > 1 {
		p, ok := b.BM.AllocPage(false)
		if !ok {
			t.Fatalf("host allocation failed with %d free blocks", b.BM.FreeBlocks())
		}
		b.mustProgram(p, nand.OOB{}, 0, nand.OpHostData)
	}
	// Fill every active block's tail so only the reserved block remains.
	for chip := 0; chip < g.Chips(); chip++ {
		for {
			p, ok := b.BM.AllocPage(false)
			if !ok {
				break
			}
			b.mustProgram(p, nand.OOB{}, 0, nand.OpHostData)
		}
		if _, ok := b.BM.AllocPage(false); ok {
			t.Fatal("host allocation opened the reserved block")
		}
	}
	if _, ok := b.BM.AllocPage(true); ok {
		t.Fatal("host translation allocation opened the reserved block")
	}
	// GC may take it.
	if _, ok := b.BM.AllocGCPage(false); !ok {
		t.Fatal("GC allocation could not use the reserve")
	}
}

// TestBlockErasesAcrossCollectCycles exercises repeated collect/release
// cycles and checks the per-block erase counters: totals must agree with
// the device-wide erase counter and with the wear summary, and greedy
// collection over a uniform overwrite must spread erases across many
// blocks rather than hammering one.
func TestBlockErasesAcrossCollectCycles(t *testing.T) {
	cfg := testConfig()
	f, err := NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	now := nand.Time(0)
	for i := int64(0); i < 6*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.GCCount < 10 {
		t.Fatalf("only %d collections; test needs sustained collect/release cycling", f.Col.GCCount)
	}
	var sum, maxE int64
	erased := 0
	for blk := 0; blk < cfg.Geometry.TotalBlocks(); blk++ {
		e := f.Fl.BlockErases(blk)
		sum += e
		if e > maxE {
			maxE = e
		}
		if e > 0 {
			erased++
		}
	}
	cnt := f.Fl.Counters()
	if sum != cnt.Erases {
		t.Fatalf("per-block erase sum %d != device erase counter %d", sum, cnt.Erases)
	}
	w := f.Fl.Wear()
	if w.TotalErases != sum || w.MaxErases != maxE {
		t.Fatalf("Wear() = %+v inconsistent with per-block counters (sum %d, max %d)", w, sum, maxE)
	}
	if erased < cfg.Geometry.TotalBlocks()/4 {
		t.Fatalf("erases concentrated on %d of %d blocks", erased, cfg.Geometry.TotalBlocks())
	}
	if w.MeanErases <= 0 || w.CV < 0 {
		t.Fatalf("degenerate wear summary: %+v", w)
	}
}

// TestTrimInvalidatesAndUnmaps covers the Base TRIM path: covered LPNs
// drop their mappings, their flash pages turn invalid (free GC gain), and
// trimmed space is rewritable.
func TestTrimInvalidatesAndUnmaps(t *testing.T) {
	cfg := testConfig()
	f, err := NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := f.WritePages(0, 16, 0)
	old := make([]nand.PPN, 16)
	for i := range old {
		old[i] = f.L2P.Get(int64(i))
	}
	now = f.TrimPages(4, 8, now)
	for i := int64(0); i < 16; i++ {
		trimmed := i >= 4 && i < 12
		if f.Mapped(i) == trimmed {
			t.Fatalf("lpn %d: mapped=%v after trim", i, f.Mapped(i))
		}
		if trimmed && f.Fl.State(old[i]) != nand.PageInvalid {
			t.Fatalf("lpn %d: old page not invalidated", i)
		}
	}
	col := f.Collector()
	if col.HostTrims != 1 || col.HostTrimPages != 8 || col.HostTrimmedLive != 8 {
		t.Fatalf("trim accounting: %d/%d/%d", col.HostTrims, col.HostTrimPages, col.HostTrimmedLive)
	}
	// Trimming unmapped space is a harmless no-op…
	f.TrimPages(4, 8, now)
	if col.HostTrimmedLive != 8 {
		t.Fatal("double trim double-counted live pages")
	}
	// …and trimmed LPNs are rewritable.
	done := f.WritePages(4, 8, now)
	if done <= now {
		t.Fatal("rewrite after trim did not run")
	}
	for i := int64(4); i < 12; i++ {
		if !f.Mapped(i) {
			t.Fatalf("lpn %d unmapped after rewrite", i)
		}
	}
}

// TestConfigRejectsUnknownGCPolicy: policy typos must fail Validate, not
// silently fall back to greedy.
func TestConfigRejectsUnknownGCPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.GCPolicy = "gready"
	if cfg.Validate() == nil {
		t.Fatal("unknown GC policy accepted")
	}
	if _, err := NewBase(cfg); err == nil {
		t.Fatal("NewBase accepted an unknown GC policy")
	}
	for _, k := range gc.Kinds() {
		cfg.GCPolicy = k
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v rejected: %v", k, err)
		}
	}
}

// TestBasePolicySelectionChangesVictims: a Base built with a non-default
// policy must actually collect different victims (wear-aware selection
// flattens the erase distribution versus greedy on the same workload).
func TestBasePolicySelectionChangesVictims(t *testing.T) {
	run := func(k gc.Kind) nand.WearStats {
		cfg := testConfig()
		cfg.GCPolicy = k
		f, err := NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lp := cfg.LogicalPages()
		rng := rand.New(rand.NewSource(11))
		now := nand.Time(0)
		// Skewed overwrites: 80% of writes hit 20% of the space, creating
		// the hot/cold split where victim policies diverge.
		hot := lp / 5
		for i := int64(0); i < 8*lp; i++ {
			lpn := rng.Int63n(hot)
			if rng.Intn(5) == 0 {
				lpn = hot + rng.Int63n(lp-hot)
			}
			now = f.WritePages(lpn, 1, now)
		}
		return f.Fl.Wear()
	}
	greedyWear := run(gc.Greedy)
	catWear := run(gc.CostAgeTimes)
	if greedyWear == catWear {
		t.Fatal("policies produced identical wear — selection not plugged in")
	}
	if greedyWear.TotalErases == 0 || catWear.TotalErases == 0 {
		t.Fatal("no GC in window")
	}
}
