package core

import (
	"math/rand"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// testConfig: 8 chips × 16 blocks × 16 pages (2048 pages, 16 rows of 128
// pages). Group span = 4 entries × 32 = 128 = exactly one superblock row,
// as at paper scale. 10 groups, 2 translation rows, 2 reserve rows.
func testConfig() ftl.Config {
	g := nand.Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 16, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 32
	cfg.GroupEntries = 4
	cfg.OPRatio = 0.35
	cfg.GCLowWater = 2
	cfg.CMTRatio = 0.05
	cfg.GroupSuperblocks = 3
	return cfg
}

func newFTL(t *testing.T) *LearnedFTL {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidatesGeometry(t *testing.T) {
	cfg := testConfig()
	cfg.GroupEntries = 64 // span 2048 > superblock 128
	if _, err := New(cfg); err == nil {
		t.Fatal("oversized group accepted")
	}
	cfg = testConfig()
	cfg.OPRatio = 0.02 // not enough rows for groups + reserve
	if _, err := New(cfg); err == nil {
		t.Fatal("overcommitted geometry accepted")
	}
}

func TestSequentialWritesInitializeModels(t *testing.T) {
	f := newFTL(t)
	now := nand.Time(0)
	lp := f.LogicalPages()
	for lpn := int64(0); lpn < lp; lpn += 16 {
		now = f.WritePages(lpn, 16, now)
	}
	set, mapped := f.ModelAccuracy()
	if mapped != lp {
		t.Fatalf("mapped = %d, want %d", mapped, lp)
	}
	// Sequential initialization should cover essentially everything.
	if float64(set)/float64(mapped) < 0.95 {
		t.Fatalf("model accuracy after sequential fill = %d/%d", set, mapped)
	}
}

func TestModelHitEliminatesDoubleRead(t *testing.T) {
	f := newFTL(t)
	now := nand.Time(0)
	lp := f.LogicalPages()
	for lpn := int64(0); lpn < lp; lpn += 16 {
		now = f.WritePages(lpn, 16, now)
	}
	f.Col.Reset()
	f.Fl.ResetCounters()
	// Random reads across the whole space: the CMT (1.5%) can't help, but
	// the models can — expect overwhelmingly single reads and nearly zero
	// translation reads.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		now = f.ReadPages(rng.Int63n(lp), 1, now)
	}
	if frac := f.Col.ReadClassFraction(stats.ReadSingle); frac < 0.9 {
		t.Fatalf("single-read fraction = %.2f, want >= 0.9 (classes %+v)", frac, f.Col.ReadClasses)
	}
	if f.Col.ModelHits == 0 {
		t.Fatal("no model hits")
	}
	cv := f.Fl.Counters()
	if cv.Reads[nand.OpTranslation] > 50 {
		t.Fatalf("translation reads = %d, want few", cv.Reads[nand.OpTranslation])
	}
}

func TestWriteInvalidatesModelBit(t *testing.T) {
	f := newFTL(t)
	now := f.WritePages(0, 16, 0)
	tpn := 0
	if !f.models[tpn].CanPredict(5) {
		t.Fatal("setup: bit not set")
	}
	// Overwrite lpn 5 alone: bit must clear, and the single-page rewrite
	// re-initializes a 1-length run (which may or may not fit the piece
	// budget) — either way the prediction must stay exact.
	now = f.WritePages(5, 1, now)
	if v, ok := f.models[tpn].Predict(5); ok {
		if got := f.fromVirtual(v); got != f.L2P.Get(5) {
			t.Fatalf("stale prediction after overwrite: %d vs %d", got, f.L2P.Get(5))
		}
	}
	_ = now
}

func TestRandomOverwritesThenGCRetrains(t *testing.T) {
	f := newFTL(t)
	now := nand.Time(0)
	lp := f.LogicalPages()
	for lpn := int64(0); lpn < lp; lpn += 16 {
		now = f.WritePages(lpn, 16, now)
	}
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < 4*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.GCCount == 0 {
		t.Fatal("no group GC despite 4x random overwrite")
	}
	if f.Col.ModelTrainings == 0 {
		t.Fatal("GC trained no models")
	}
	// Coherence: every mapped LPN's flash page agrees, and every model
	// prediction is exact (readOne panics otherwise — exercise it).
	for lpn := int64(0); lpn < lp; lpn++ {
		if ppn := f.L2P.Get(lpn); ppn != nand.InvalidPPN {
			if f.Fl.PageOOB(ppn).Key != lpn || f.Fl.State(ppn) != nand.PageValid {
				t.Fatalf("lpn %d: flash metadata mismatch after GC", lpn)
			}
		}
	}
	f.Col.Reset()
	for i := 0; i < 1000; i++ {
		now = f.ReadPages(rng.Int63n(lp), 1, now)
	}
	// GC-time training should give a solid model hit ratio on random reads
	// even after random overwrites (the paper's 55.5%).
	if got := f.Col.ModelHitRatio(); got < 0.3 {
		t.Fatalf("model hit ratio after GC training = %.2f", got)
	}
}

func TestGroupGCKeepsGroupsCompact(t *testing.T) {
	f := newFTL(t)
	now := nand.Time(0)
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 6*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	// Row accounting must balance: every row is free, translation, or
	// owned by exactly one group.
	owned := 0
	for gid := range f.groups {
		owned += len(f.groups[gid].rows)
		if len(f.groups[gid].rows) > f.Cfg.GroupSuperblocks {
			t.Fatalf("group %d holds %d rows > limit", gid, len(f.groups[gid].rows))
		}
	}
	if owned+len(f.freeRows)+f.transRows != f.Cfg.Geometry.BlocksPerUnit {
		t.Fatalf("row accounting broken: owned %d + free %d + trans %d != %d",
			owned, len(f.freeRows), f.transRows, f.Cfg.Geometry.BlocksPerUnit)
	}
}

func TestCrossGroupBorrowingDelaysGC(t *testing.T) {
	cfg := testConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := nand.Time(0)
	lp := f.LogicalPages()
	// Touch every group once so each owns a row.
	for lpn := int64(0); lpn < lp; lpn += int64(f.span) {
		now = f.WritePages(lpn, 1, now)
	}
	// Hammer group 0 until it must borrow (its 3-row limit plus reserve
	// exhaustion). No panic and eventual GC is the expected behavior.
	for i := int64(0); i < 8*int64(f.span); i++ {
		now = f.WritePages(i%int64(f.span), 1, now)
	}
	if f.Col.GCCount == 0 {
		t.Fatal("hot group never collected")
	}
	// All other groups' data must be intact.
	for lpn := int64(f.span); lpn < lp; lpn += int64(f.span) {
		if !f.Mapped(lpn) || f.Fl.PageOOB(f.L2P.Get(lpn)).Key != lpn {
			t.Fatalf("cold lpn %d corrupted", lpn)
		}
	}
}

func TestDisableCrossGroupStillWorks(t *testing.T) {
	cfg := testConfig()
	cfg.Learned.DisableCrossGroup = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := nand.Time(0)
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(9))
	for i := int64(0); i < 3*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.GCCount == 0 {
		t.Fatal("no GC")
	}
}

func TestVPPNAblationDegradesAccuracy(t *testing.T) {
	run := func(disableVPPN bool) float64 {
		cfg := testConfig()
		cfg.Learned.DisableVPPN = disableVPPN
		cfg.Learned.DisableSeqInit = true // isolate GC training
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		now := nand.Time(0)
		lp := f.LogicalPages()
		rng := rand.New(rand.NewSource(5))
		for i := int64(0); i < 5*lp; i++ {
			now = f.WritePages(rng.Int63n(lp), 1, now)
		}
		set, mapped := f.ModelAccuracy()
		if mapped == 0 {
			t.Fatal("nothing mapped")
		}
		return float64(set) / float64(mapped)
	}
	withVPPN := run(false)
	withoutVPPN := run(true)
	// Training on raw PPNs (whose fields are ordered chip-major) must be
	// far less linear than on VPPNs — this is Challenge #2 / §III-C.
	if withoutVPPN >= withVPPN {
		t.Fatalf("VPPN ablation: accuracy with=%.2f without=%.2f", withVPPN, withoutVPPN)
	}
	if withVPPN < 0.5 {
		t.Fatalf("VPPN accuracy after GC training = %.2f, want >= 0.5", withVPPN)
	}
}

func TestSeqInitAblation(t *testing.T) {
	run := func(disable bool) int64 {
		cfg := testConfig()
		cfg.Learned.DisableSeqInit = disable
		f, _ := New(cfg)
		now := nand.Time(0)
		lp := f.LogicalPages()
		for lpn := int64(0); lpn < lp; lpn += 16 {
			now = f.WritePages(lpn, 16, now)
		}
		set, _ := f.ModelAccuracy()
		return set
	}
	if on, off := run(false), run(true); off >= on {
		t.Fatalf("seq-init ablation: bits on=%d off=%d", on, off)
	}
}

func TestTrainingChargeAccountedInGCTime(t *testing.T) {
	f := newFTL(t)
	now := nand.Time(0)
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(4))
	for i := int64(0); i < 4*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.SortTrainOps == 0 {
		t.Fatal("no training charge recorded")
	}
	want := f.Col.SortTrainOps * int64(testConfig().Learned.SortTrainCost)
	if f.Col.SortTrainNS != want {
		t.Fatalf("SortTrainNS = %d, want %d", f.Col.SortTrainNS, want)
	}
	if nand.Time(f.Col.SortTrainNS) >= f.Col.GCBusyTime {
		t.Fatal("training time exceeds total GC time")
	}
}

func TestTranslationPoolGC(t *testing.T) {
	cfg := testConfig()
	cfg.CMTRatio = 0.01 // tiny CMT → constant dirty evictions → TP churn
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := nand.Time(0)
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(8))
	for i := int64(0); i < 6*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	// The pool must have wrapped at least once; every GTD pointer must be
	// live.
	for tpn := 0; tpn < f.GTD.NumTPNs(); tpn++ {
		if !f.GTD.Written(tpn) {
			continue
		}
		p := f.GTD.Lookup(tpn)
		if f.Fl.State(p) != nand.PageValid {
			t.Fatalf("tpn %d points at %v page", tpn, f.Fl.State(p))
		}
		oob := f.Fl.PageOOB(p)
		if !oob.Trans || oob.Key != int64(tpn) {
			t.Fatalf("tpn %d OOB mismatch", tpn)
		}
	}
}

func TestModelsBytesMatchesPaperBudget(t *testing.T) {
	f := newFTL(t)
	per := f.ModelsBytes() / len(f.models)
	// Test config uses 32-entry TPs (one 8-byte bitmap word): 8*6+8+16 = 72.
	if per != 72 {
		t.Fatalf("per-model bytes = %d", per)
	}
	// At paper parameters the budget must be 128 B.
	m := learnedModelPaperSize()
	if m != 128 {
		t.Fatalf("paper-scale model bytes = %d, want 128", m)
	}
}

func TestUnmappedReadFree(t *testing.T) {
	f := newFTL(t)
	if done := f.ReadPages(3, 1, 77); done != 77 {
		t.Fatal("unmapped read took time")
	}
}

// TestTransPoolChurnKeepsSlack is the regression test for the translation
// pool wedge: a pool allowed to fill completely cannot host its own GC
// relocations and used to panic ("translation pool wedged during GC") the
// moment every full block still held a live translation page. updateTrans
// now collects while the pool's slack is at or below one block, so churning
// translation updates far past the pool's raw capacity must neither panic
// nor let the slack collapse, and the GTD must stay coherent throughout.
func TestTransPoolChurnKeepsSlack(t *testing.T) {
	f := newFTL(t)
	ppb := f.Cfg.Geometry.PagesPerBlock
	slots := f.tp.freeSlots()
	tpns := len(f.models)
	var now nand.Time
	for i := 0; i < 3*slots; i++ {
		now = f.updateTrans(i%tpns, false, now)
		if free := f.tp.freeSlots(); free < ppb {
			t.Fatalf("after %d churn updates the pool slack collapsed to %d slots (< one block of %d)", i+1, free, ppb)
		}
	}
	for tpn := 0; tpn < tpns; tpn++ {
		p := f.GTD.Lookup(tpn)
		if f.Fl.State(p) != nand.PageValid {
			t.Fatalf("GTD entry %d points at a %v page after pool churn", tpn, f.Fl.State(p))
		}
		if oob := f.Fl.PageOOB(p); !oob.Trans || oob.Key != int64(tpn) {
			t.Fatalf("GTD entry %d OOB diverged: %+v", tpn, oob)
		}
	}
}
