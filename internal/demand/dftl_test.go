package demand

import (
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

func TestReadHitVsMiss(t *testing.T) {
	d, err := NewDFTL(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := fill(t, d)
	d.Col.Reset()
	d.Fl.ResetCounters()

	// The CMT is smaller than the logical space; LPN 0 was evicted long
	// ago, so this is a miss: translation read + data read (double).
	now = d.ReadPages(0, 1, now)
	if d.Col.ReadClasses[stats.ReadDouble] != 1 {
		t.Fatalf("first read classes: %+v", d.Col.ReadClasses)
	}
	cv := d.Fl.Counters()
	// At least the demand translation read; a dirty eviction may add one
	// more RMW read.
	if cv.Reads[nand.OpTranslation] < 1 || cv.Reads[nand.OpHostData] != 1 {
		t.Fatalf("first read flash ops: %+v", cv.Reads)
	}
	transAfterMiss := cv.Reads[nand.OpTranslation]

	// Now cached: single read, no further translation access.
	d.ReadPages(0, 1, now)
	if d.Col.ReadClasses[stats.ReadSingle] != 1 {
		t.Fatalf("second read classes: %+v", d.Col.ReadClasses)
	}
	cv = d.Fl.Counters()
	if cv.Reads[nand.OpTranslation] != transAfterMiss {
		t.Fatalf("second read touched translation: %+v", cv.Reads)
	}
	if d.Col.CMTHitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v", d.Col.CMTHitRatio())
	}
}

func TestUnmappedReadIsFree(t *testing.T) {
	d, _ := NewDFTL(testConfig())
	done := d.ReadPages(5, 1, 100)
	if done != 100 {
		t.Fatalf("unmapped read took time: %d", done)
	}
	cv := d.Fl.Counters()
	if cv.TotalReads() != 0 {
		t.Fatal("unmapped read hit flash")
	}
}

func TestDirtyEvictionWritesTranslationPage(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDFTL(cfg)
	capn := d.CMT.Cap()
	now := nand.Time(0)
	// Write capn+5 distinct LPNs: 5 dirty evictions must each RMW a
	// translation page.
	for i := 0; i < capn+5; i++ {
		now = d.WritePages(int64(i*2), 1, now)
	}
	cv := d.Fl.Counters()
	if cv.Programs[nand.OpTranslation] < 5 {
		t.Fatalf("translation programs = %d, want >= 5", cv.Programs[nand.OpTranslation])
	}
	if d.CMT.Len() > capn {
		t.Fatalf("CMT over capacity: %d > %d", d.CMT.Len(), capn)
	}
}

func TestRandomReadsAreMostlyDoubleReads(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDFTL(cfg)
	now := fill(t, d)
	d.Col.Reset()
	rng := rand.New(rand.NewSource(42))
	lp := cfg.LogicalPages()
	for i := 0; i < 500; i++ {
		now = d.ReadPages(rng.Int63n(lp), 1, now)
	}
	// The paper's §II-B observation: without locality, almost everything
	// misses the CMT.
	if frac := d.Col.ReadClassFraction(stats.ReadDouble); frac < 0.5 {
		t.Fatalf("random-read double fraction = %.2f, want > 0.5", frac)
	}
}

func TestGCKeepsMappingAndCacheCoherent(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDFTL(cfg)
	lp := cfg.LogicalPages()
	rng := rand.New(rand.NewSource(7))
	now := nand.Time(0)
	for i := int64(0); i < 4*lp; i++ {
		now = d.WritePages(rng.Int63n(lp), 1, now)
	}
	if d.Col.GCCount == 0 {
		t.Fatal("no GC")
	}
	// Every cached mapping must agree with the shadow map.
	for lpn := int64(0); lpn < lp; lpn++ {
		if e, ok := d.CMT.Peek(lpn); ok {
			if e.PPN != d.L2P.Get(lpn) {
				t.Fatalf("lpn %d: CMT %d vs L2P %d", lpn, e.PPN, d.L2P.Get(lpn))
			}
		}
		if ppn := d.L2P.Get(lpn); ppn != nand.InvalidPPN {
			if d.Fl.PageOOB(ppn).Key != lpn {
				t.Fatalf("lpn %d: OOB mismatch after GC", lpn)
			}
		}
	}
	// Reads after heavy GC still resolve correctly.
	d.Col.Reset()
	for i := 0; i < 50; i++ {
		now = d.ReadPages(rng.Int63n(lp), 1, now)
	}
	if d.Col.CMTLookups != 50 {
		t.Fatalf("translations attempted = %d, want 50", d.Col.CMTLookups)
	}
}

func TestAffectedTPNsDedup(t *testing.T) {
	f, _ := NewDFTL(testConfig())
	// GC hands over the moved LPNs in victim-page order, not sorted.
	got := f.AffectedTPNs([]int64{65, 0, 33, 1, 64, 2})
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("AffectedTPNs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AffectedTPNs = %v, want %v", got, want)
		}
	}
	if got := f.AffectedTPNs(nil); len(got) != 0 {
		t.Fatalf("AffectedTPNs(nil) = %v", got)
	}
}
