package leaftl

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
	cfg.LeaBufferPages = 64
	return cfg
}

func TestWritesBufferUntilFull(t *testing.T) {
	cfg := testConfig()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := nand.Time(0)
	for i := 0; i < cfg.LeaBufferPages-1; i++ {
		now = l.WritePages(int64(i), 1, now)
	}
	if now != 0 {
		t.Fatalf("buffered writes took flash time: %d", now)
	}
	cv := l.Fl.Counters()
	if cv.TotalPrograms() != 0 {
		t.Fatal("buffered writes hit flash")
	}
	if l.BufferedPages() != cfg.LeaBufferPages-1 {
		t.Fatalf("buffered = %d", l.BufferedPages())
	}
	// One more write triggers the flush.
	now = l.WritePages(int64(cfg.LeaBufferPages-1), 1, now)
	if now == 0 {
		t.Fatal("flush took no time")
	}
	cv = l.Fl.Counters()
	if cv.Programs[nand.OpHostData] != int64(cfg.LeaBufferPages) {
		t.Fatalf("host programs = %d, want %d", cv.Programs[nand.OpHostData], cfg.LeaBufferPages)
	}
	if l.BufferedPages() != 0 {
		t.Fatal("buffer not drained")
	}
	if l.SegmentsTotal() == 0 {
		t.Fatal("flush trained no segments")
	}
}

func TestBufferedReadIsFree(t *testing.T) {
	l, _ := New(testConfig())
	l.WritePages(5, 1, 0)
	done := l.ReadPages(5, 1, 100)
	if done != 100 {
		t.Fatalf("buffered read took time: %d", done)
	}
	if l.Col.ReadClasses[stats.ReadSingle] != 1 {
		t.Fatalf("classes %+v", l.Col.ReadClasses)
	}
}

// fillSeq writes the whole logical space with large sequential requests so
// segments train well (the paper warms LeaFTL with 512KB I/O because it
// "cannot handle 4KB random writes").
func fillSeq(tb testing.TB, l *LeaFTL) nand.Time {
	tb.Helper()
	now := nand.Time(0)
	lp := l.Cfg.LogicalPages()
	for lpn := int64(0); lpn < lp; lpn += 16 {
		n := 16
		if lpn+16 > lp {
			n = int(lp - lpn)
		}
		now = l.WritePages(lpn, n, now)
	}
	// Force a final flush by overwriting one page repeatedly is wrong; use
	// the internal flush to drain the tail.
	return l.flush(now)
}

func TestSequentialFillPredictsAccurately(t *testing.T) {
	cfg := testConfig()
	l, _ := New(cfg)
	now := fillSeq(t, l)
	l.Col.Reset()
	l.Fl.ResetCounters()

	// Sequentially-written data should predict exactly for most LPNs once
	// the model is cached: read a small, recently flushed range twice.
	lp := cfg.LogicalPages()
	base := lp - int64(cfg.EntriesPerTP)
	for o := int64(0); o < 8; o++ {
		now = l.ReadPages(base+o, 1, now)
	}
	single := l.Col.ReadClasses[stats.ReadSingle]
	if single < 6 {
		t.Fatalf("singles = %d of 8 on sequential data (classes %+v)", single, l.Col.ReadClasses)
	}
}

func TestModelCacheMissCausesExtraRead(t *testing.T) {
	cfg := testConfig()
	// Shrink the cache to a single model's worth so cross-TP reads miss.
	cfg.CMTRatio = 0.001
	l, _ := New(cfg)
	now := fillSeq(t, l)
	l.Col.Reset()
	l.Fl.ResetCounters()

	// Alternate between two distant translation pages: every read misses
	// the tiny model cache → at least double reads.
	a, b := int64(0), int64(cfg.EntriesPerTP*4)
	for i := 0; i < 10; i++ {
		now = l.ReadPages(a, 1, now)
		now = l.ReadPages(b, 1, now)
	}
	cv := l.Fl.Counters()
	if cv.Reads[nand.OpTranslation] < 10 {
		t.Fatalf("translation reads = %d, want >= 10 (cache thrash)", cv.Reads[nand.OpTranslation])
	}
	if l.Col.ReadClasses[stats.ReadSingle] > 2 {
		t.Fatalf("too many singles under cache thrash: %+v", l.Col.ReadClasses)
	}
}

func TestRandomOverwritesDegradeToMultiReads(t *testing.T) {
	cfg := testConfig()
	l, _ := New(cfg)
	now := fillSeq(t, l)

	// Random 4KB overwrites fragment the mapping: segments go stale or
	// single-point; subsequent random reads show double/triple reads
	// (paper Fig. 6b).
	rng := rand.New(rand.NewSource(11))
	lp := cfg.LogicalPages()
	for i := 0; i < int(lp); i++ {
		now = l.WritePages(rng.Int63n(lp), 1, now)
	}
	now = l.flush(now)
	l.Col.Reset()
	for i := 0; i < 400; i++ {
		now = l.ReadPages(rng.Int63n(lp), 1, now)
	}
	multi := l.Col.ReadClassFraction(stats.ReadDouble) + l.Col.ReadClassFraction(stats.ReadTriple)
	if multi < 0.3 {
		t.Fatalf("double+triple fraction = %.2f, want >= 0.3", multi)
	}
}

func TestReadsAlwaysLandOnTruth(t *testing.T) {
	// Whatever the model predicts, the read path must end at the true
	// location (via the OOB error-interval mechanism). We verify via the
	// op accounting: the final read in every class targets L2P truth, so a
	// full scan must issue >= one host read per mapped LPN and never
	// panic.
	cfg := testConfig()
	l, _ := New(cfg)
	now := fillSeq(t, l)
	rng := rand.New(rand.NewSource(5))
	lp := cfg.LogicalPages()
	for i := 0; i < int(lp)/2; i++ {
		now = l.WritePages(rng.Int63n(lp), 1, now)
	}
	now = l.flush(now)
	l.Fl.ResetCounters()
	reads := 0
	for lpn := int64(0); lpn < lp; lpn++ {
		if l.Mapped(lpn) {
			now = l.ReadPages(lpn, 1, now)
			reads++
		}
	}
	cv := l.Fl.Counters()
	if cv.Reads[nand.OpHostData] < int64(reads) {
		t.Fatalf("host reads %d < mapped reads %d", cv.Reads[nand.OpHostData], reads)
	}
}

func TestGCRetrainsSegments(t *testing.T) {
	cfg := testConfig()
	l, _ := New(cfg)
	now := fillSeq(t, l)
	lp := cfg.LogicalPages()
	rng := rand.New(rand.NewSource(2))
	for i := int64(0); i < 3*lp; i++ {
		now = l.WritePages(rng.Int63n(lp), 1, now)
	}
	now = l.flush(now)
	if l.Col.GCCount == 0 {
		t.Fatal("no GC")
	}
	if l.Col.ModelTrainings == 0 {
		t.Fatal("no trainings")
	}
	// After all that churn, mapped reads must still resolve.
	l.Col.Reset()
	for i := 0; i < 100; i++ {
		now = l.ReadPages(rng.Int63n(lp), 1, now)
	}
	if l.Col.CMTLookups != 100 {
		t.Fatal("read path broken after GC")
	}
}

func TestModelCacheBudgetEnforced(t *testing.T) {
	c := newModelCache(100, 1000)
	for tpn := 0; tpn < 50; tpn++ {
		c.Insert(tpn, 16)
	}
	if c.Used() > 100 {
		t.Fatalf("cache used %d > budget 100", c.Used())
	}
	if c.Len() > 7 {
		t.Fatalf("cache holds %d models", c.Len())
	}
	// Most recent stays.
	if !c.Contains(49) {
		t.Fatal("MRU evicted")
	}
	if c.Contains(0) {
		t.Fatal("LRU survived")
	}
}

func TestModelCacheResize(t *testing.T) {
	c := newModelCache(100, 1000)
	c.Insert(1, 10)
	c.Resize(1, 60)
	if c.Used() != 60 {
		t.Fatalf("Used = %d", c.Used())
	}
	c.Resize(2, 50) // absent: no-op
	if c.Used() != 60 {
		t.Fatalf("Used after absent resize = %d", c.Used())
	}
}

// TestModelCacheCapacityOneBudget keeps a budget that fits a single model:
// each insert evicts the previous one through the node pool, but the cache
// never evicts its last (MRU) model even when oversized.
func TestModelCacheCapacityOneBudget(t *testing.T) {
	c := newModelCache(16, 1000)
	for tpn := 0; tpn < 20; tpn++ {
		c.Insert(tpn, 16)
		if c.Len() != 1 {
			t.Fatalf("Len = %d, want 1", c.Len())
		}
		if !c.Contains(tpn) {
			t.Fatalf("just-inserted tpn %d missing", tpn)
		}
		if tpn > 0 && c.Contains(tpn-1) {
			t.Fatalf("tpn %d survived past budget", tpn-1)
		}
	}
	// An oversized model stays resident (eviction stops at one entry).
	c.Insert(99, 1000)
	if !c.Contains(99) || c.Len() != 1 {
		t.Fatalf("oversized MRU evicted: len=%d used=%d", c.Len(), c.Used())
	}
}

// TestModelCachePoolRecycling cycles insert/evict far past the working set
// and checks the node pool does not grow without bound.
func TestModelCachePoolRecycling(t *testing.T) {
	c := newModelCache(64, 1000) // fits 4 models of 16 bytes
	for tpn := 0; tpn < 1000; tpn++ {
		c.Insert(tpn, 16)
	}
	if got := len(c.nodes); got > 5 {
		t.Fatalf("node pool grew to %d slots, want <= 5", got)
	}
	if c.Used() != 64 || c.Len() != 4 {
		t.Fatalf("steady state: used=%d len=%d", c.Used(), c.Len())
	}
	// Re-insert of a resident tpn resizes in place, no growth.
	c.Insert(999, 32)
	if got := len(c.nodes); got > 5 {
		t.Fatalf("resize grew pool to %d slots", got)
	}
}

// relocationCheck wraps a LeaFTL's GC hooks and checks, at every collection,
// what lets the controller sort a victim's valid pages by key with any sort
// and get one order: the moved LPNs are strictly ascending, so the victim's
// data pages carry distinct keys, and every valid page of the device is the
// one copy its key maps to — a data page through the L2P, a translation
// page through the GTD — in a block holding one stream. So whatever block
// is the next victim, its valid pages carry distinct keys.
type relocationCheck struct {
	*LeaFTL
	t           *testing.T
	collections int
	buf         []nand.PPN
}

func (r *relocationCheck) GCFinalize(moved []int64, t nand.Time) nand.Time {
	r.collections++
	for i := 1; i < len(moved); i++ {
		if moved[i-1] >= moved[i] {
			r.t.Fatalf("collection %d moved LPN %d after %d", r.collections, moved[i], moved[i-1])
		}
	}
	l := r.LeaFTL
	for blk := 0; blk < l.Cfg.Geometry.TotalBlocks(); blk++ {
		r.buf = l.Fl.AppendValidPages(blk, r.buf[:0])
		for _, p := range r.buf {
			oob := l.Fl.PageOOB(p)
			if oob.Trans != l.Fl.PageOOB(r.buf[0]).Trans {
				r.t.Fatalf("after collection %d block %d holds data and translation pages", r.collections, blk)
			}
			if oob.Trans && l.GTD.Lookup(int(oob.Key)) != p || !oob.Trans && l.L2P.Get(oob.Key) != p {
				r.t.Fatalf("after collection %d page %d holds a second valid copy of key %+v", r.collections, p, oob)
			}
		}
	}
	return l.GCFinalize(moved, t)
}

// TestGCRelocatesDistinctKeys runs overwrites, reads and trims through
// thousands of collections under relocationCheck.
func TestGCRelocatesDistinctKeys(t *testing.T) {
	l, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := &relocationCheck{LeaFTL: l, t: t}
	l.Hooks = check
	for seed := int64(1); seed <= 4; seed++ {
		churn(l, seed)
	}
	if check.collections < 1000 {
		t.Fatalf("%d collections, want a GC-heavy run", check.collections)
	}
}
