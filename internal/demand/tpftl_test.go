package demand

import (
	"math/rand"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

func testConfig() ftl.Config {
	g := nand.Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 32
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.25
	cfg.GCLowWater = 3
	cfg.CMTRatio = 0.05
	return cfg
}

func fill(tb testing.TB, f *FTL) nand.Time {
	tb.Helper()
	now := nand.Time(0)
	for lpn := int64(0); lpn < f.Cfg.LogicalPages(); lpn++ {
		now = f.WritePages(lpn, 1, now)
	}
	return now
}

func TestPrefetchServesSequentialRequest(t *testing.T) {
	f, err := NewTPFTL(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := fill(t, f)
	f.Col.Reset()
	f.Fl.ResetCounters()

	// An 8-page sequential read: the first page misses and loads the
	// remaining 7 mappings from the same translation page, so pages 2..8
	// hit the CMT — one translation read total.
	f.ReadPages(0, 8, now)
	cv := f.Fl.Counters()
	if cv.Reads[nand.OpTranslation] != 1 {
		t.Fatalf("translation reads = %d, want 1 (prefetch)", cv.Reads[nand.OpTranslation])
	}
	if f.Col.ReadClasses[stats.ReadSingle] != 7 || f.Col.ReadClasses[stats.ReadDouble] != 1 {
		t.Fatalf("classes: %+v", f.Col.ReadClasses)
	}
	if got := f.Col.CMTHitRatio(); got != 7.0/8 {
		t.Fatalf("hit ratio = %v", got)
	}
}

func TestPrefetchClipsAtTranslationPageBoundary(t *testing.T) {
	cfg := testConfig()
	f, _ := NewTPFTL(cfg)
	now := fill(t, f)
	f.Col.Reset()
	f.Fl.ResetCounters()

	// Read spanning two translation pages: one translation read each.
	start := int64(cfg.EntriesPerTP - 4)
	f.ReadPages(start, 8, now)
	cv := f.Fl.Counters()
	if cv.Reads[nand.OpTranslation] != 2 {
		t.Fatalf("translation reads = %d, want 2", cv.Reads[nand.OpTranslation])
	}
}

func TestAdaptiveEMAPrefetchesForShortRequests(t *testing.T) {
	cfg := testConfig()
	f, _ := NewTPFTL(cfg)
	now := fill(t, f)
	// Train the EMA with long requests.
	for i := 0; i < 20; i++ {
		now = f.ReadPages(0, 8, now)
	}
	f.Col.Reset()
	f.Fl.ResetCounters()
	// A 1-page miss should now prefetch ~8 mappings: the following 1-page
	// reads hit.
	base := int64(cfg.EntriesPerTP * 2)
	now = f.ReadPages(base, 1, now)
	for o := int64(1); o < 6; o++ {
		now = f.ReadPages(base+o, 1, now)
	}
	cv := f.Fl.Counters()
	if cv.Reads[nand.OpTranslation] != 1 {
		t.Fatalf("translation reads = %d, want 1 (EMA prefetch)", cv.Reads[nand.OpTranslation])
	}
}

func TestRandomReadsStillMostlyDouble(t *testing.T) {
	cfg := testConfig()
	f, _ := NewTPFTL(cfg)
	now := fill(t, f)
	f.Col.Reset()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		now = f.ReadPages(rng.Int63n(cfg.LogicalPages()), 1, now)
	}
	// Prefetching cannot rescue random reads (paper Fig. 2b).
	if frac := f.Col.ReadClassFraction(stats.ReadDouble); frac < 0.4 {
		t.Fatalf("random double fraction = %.2f, want > 0.4", frac)
	}
}

func TestBatchedWritebackFlushesWholeTP(t *testing.T) {
	cfg := testConfig()
	f, _ := NewTPFTL(cfg)
	capn := f.CMT.Cap()
	now := nand.Time(0)
	// Dirty many entries of translation page 0, then force evictions by
	// touching other translation pages.
	for i := 0; i < cfg.EntriesPerTP && i < capn/2; i++ {
		now = f.WritePages(int64(i), 1, now)
	}
	dirtyBefore := f.CMT.DirtyLen()
	if dirtyBefore == 0 {
		t.Fatal("setup produced no dirty entries")
	}
	// Overflow the cache from a distant range.
	far := int64(cfg.EntriesPerTP * 4)
	for i := 0; i <= capn; i++ {
		now = f.WritePages(far+int64(i%cfg.EntriesPerTP), 1, now)
	}
	// Once an entry of TP0 was evicted, every TP0 dirty sibling became
	// clean in the same RMW — so the dirty count for TP0 must be zero.
	if got := f.CMT.CleanRange(0, int64(cfg.EntriesPerTP)); got != 0 {
		t.Fatalf("TP0 still has %d dirty entries after batched writeback", got)
	}
}

func TestGCCoherence(t *testing.T) {
	cfg := testConfig()
	f, _ := NewTPFTL(cfg)
	lp := cfg.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	now := nand.Time(0)
	for i := int64(0); i < 4*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.GCCount == 0 {
		t.Fatal("no GC")
	}
	for lpn := int64(0); lpn < lp; lpn++ {
		if e, ok := f.CMT.Peek(lpn); ok && e.PPN != f.L2P.Get(lpn) {
			t.Fatalf("lpn %d: CMT stale after GC", lpn)
		}
	}
}

func TestSeqVsRandReadThroughputShape(t *testing.T) {
	// The motivating observation (Fig. 2): sequential reads beat random
	// reads under TPFTL because prefetch only helps with locality.
	cfg := testConfig()
	mk := func() (*FTL, nand.Time) {
		f, _ := NewTPFTL(cfg)
		now := fill(t, f)
		f.Col.Reset()
		f.Fl.ResetCounters()
		return f, now
	}
	lp := cfg.LogicalPages()

	fs, now := mk()
	start := now
	for base := int64(0); base+8 <= lp; base += 8 {
		now = fs.ReadPages(base, 8, now)
	}
	seqPerPage := float64(now-start) / float64(lp)

	fr, now2 := mk()
	rng := rand.New(rand.NewSource(9))
	start2 := now2
	n := int(lp)
	for i := 0; i < n; i++ {
		now2 = fr.ReadPages(rng.Int63n(lp), 1, now2)
	}
	randPerPage := float64(now2-start2) / float64(n)

	if randPerPage <= seqPerPage {
		t.Fatalf("random (%.0fns/page) not slower than sequential (%.0fns/page)", randPerPage, seqPerPage)
	}
}
