package ftl

import (
	"math"
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// testConfig returns a tiny device: 8 chips × 8 blocks × 16 pages.
func testConfig() Config {
	g := nand.Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
	cfg := DefaultConfig(g)
	cfg.EntriesPerTP = 32
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.25
	cfg.GCLowWater = 3
	return cfg
}

func TestConfigDerivedValues(t *testing.T) {
	cfg := testConfig()
	lp := cfg.LogicalPages()
	if lp <= 0 || lp >= int64(cfg.Geometry.TotalPages()) {
		t.Fatalf("LogicalPages = %d of %d physical", lp, cfg.Geometry.TotalPages())
	}
	if lp%int64(cfg.EntriesPerTP) != 0 {
		t.Fatalf("LogicalPages %d not a TP multiple", lp)
	}
	if cfg.NumTPNs() != int(lp)/cfg.EntriesPerTP {
		t.Fatalf("NumTPNs = %d", cfg.NumTPNs())
	}
	lo, hi := cfg.TPRange(cfg.TPNOf(100))
	if 100 < lo || 100 >= hi {
		t.Fatal("TPRange does not cover its LPN")
	}
	if cfg.CMTEntries() < 1 {
		t.Fatal("CMTEntries < 1")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// A negative LearnedFTL CPU charge would issue a model-hit read before
	// the request that made it arrived. A CMTRatio or MaxPieces out of range
	// would size the mapping cache or every model's piece array from it.
	for _, c := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"OPRatio 0", func(c *Config) { c.OPRatio = 0 }, false},
		{"GCLowWater 1", func(c *Config) { c.GCLowWater = 1 }, false},
		{"negative PredictCost", func(c *Config) { c.Learned.PredictCost = -1 }, false},
		{"zero PredictCost", func(c *Config) { c.Learned.PredictCost = 0 }, true},
		{"CMTRatio 0", func(c *Config) { c.CMTRatio = 0 }, false},
		{"negative CMTRatio", func(c *Config) { c.CMTRatio = -0.01 }, false},
		{"NaN CMTRatio", func(c *Config) { c.CMTRatio = math.NaN() }, false},
		{"CMTRatio above 1", func(c *Config) { c.CMTRatio = 1.01 }, false},
		{"infinite CMTRatio", func(c *Config) { c.CMTRatio = math.Inf(1) }, false},
		{"CMTRatio 1", func(c *Config) { c.CMTRatio = 1 }, true},
		{"MaxPieces 0", func(c *Config) { c.MaxPieces = 0 }, false},
		{"negative MaxPieces", func(c *Config) { c.MaxPieces = -1 }, false},
		{"MaxPieces above EntriesPerTP", func(c *Config) { c.MaxPieces = c.EntriesPerTP + 1 }, false},
		{"huge MaxPieces", func(c *Config) { c.MaxPieces = math.MaxInt }, false},
		{"MaxPieces 1", func(c *Config) { c.MaxPieces = 1 }, true},
		{"MaxPieces EntriesPerTP", func(c *Config) { c.MaxPieces = c.EntriesPerTP }, true},
	} {
		bad := cfg
		c.set(&bad)
		if err := bad.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
	// LeaFTL packs a segment's span and error into 16 bits each and names a
	// translation page's segments by 16-bit handles.
	for _, c := range []struct {
		entries int
		gamma   int64
		ok      bool
	}{
		{1<<15 - 1, 1 << 15, true},
		{1 << 15, 4, false},
		{1 << 16, 4, false},
		{32, 1<<15 + 1, false},
		{32, -1, false},
	} {
		lea := cfg
		lea.GroupEntries, lea.EntriesPerTP, lea.LeaGamma = 1, c.entries, c.gamma
		if err := lea.Validate(); (err == nil) != c.ok {
			t.Errorf("EntriesPerTP %d, LeaGamma %d: Validate() = %v, want ok %v", c.entries, c.gamma, err, c.ok)
		}
	}
}

func TestBlockManAllocSpreadsAcrossChips(t *testing.T) {
	cfg := testConfig()
	b, err := NewBase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < cfg.Geometry.Chips(); i++ {
		ppn, ok := b.BM.AllocPage(false)
		if !ok {
			t.Fatal("alloc failed on empty device")
		}
		// Program so the next alloc moves on (and chip busy time advances).
		b.mustProgram(ppn, nand.OOB{Key: int64(i)}, 0, nand.OpHostData)
		seen[b.Codec.Chip(ppn)] = true
	}
	if len(seen) != cfg.Geometry.Chips() {
		t.Fatalf("allocations used %d chips, want %d (least-busy spreading)", len(seen), cfg.Geometry.Chips())
	}
}

func TestBlockManFreeAccounting(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	total := cfg.Geometry.TotalBlocks()
	if b.BM.FreeBlocks() != total {
		t.Fatalf("FreeBlocks = %d, want %d", b.BM.FreeBlocks(), total)
	}
	ppn, _ := b.BM.AllocPage(false)
	if b.BM.FreeBlocks() != total-1 {
		t.Fatalf("FreeBlocks = %d after opening a block", b.BM.FreeBlocks())
	}
	if !b.BM.IsActive(b.Codec.BlockID(ppn)) {
		t.Fatal("opened block not active")
	}
}

func TestVictimBlockPicksMostInvalid(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	g := cfg.Geometry
	// Fill two blocks on chip 0 via direct programming.
	blkA, blkB := 0, 1
	for i := 0; i < g.PagesPerBlock; i++ {
		pA := b.Codec.Encode(b.Codec.BlockAddr(blkA)) + nand.PPN(i)
		pB := b.Codec.Encode(b.Codec.BlockAddr(blkB)) + nand.PPN(i)
		b.mustProgram(pA, nand.OOB{Key: int64(i)}, 0, nand.OpHostData)
		b.mustProgram(pB, nand.OOB{Key: int64(100 + i)}, 0, nand.OpHostData)
	}
	// Invalidate most of blkB, a little of blkA.
	for i := 0; i < g.PagesPerBlock-2; i++ {
		if err := b.Fl.Invalidate(b.Codec.Encode(b.Codec.BlockAddr(blkB)) + nand.PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Fl.Invalidate(b.Codec.Encode(b.Codec.BlockAddr(blkA))); err != nil {
		t.Fatal(err)
	}
	if v := b.GC.Victim(0); v != blkB {
		t.Fatalf("victim = %d, want %d", v, blkB)
	}
}

func TestIdealWriteReadRoundTrip(t *testing.T) {
	cfg := testConfig()
	f, err := NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := nand.Time(0)
	lp := cfg.LogicalPages()
	for lpn := int64(0); lpn < lp; lpn++ {
		now = f.WritePages(lpn, 1, now)
	}
	// Every mapped page's OOB agrees with the shadow map.
	for lpn := int64(0); lpn < lp; lpn++ {
		ppn := f.L2P.Get(lpn)
		if ppn == nand.InvalidPPN {
			t.Fatalf("lpn %d unmapped after write", lpn)
		}
		if f.Fl.State(ppn) != nand.PageValid || f.Fl.PageOOB(ppn).Key != lpn {
			t.Fatalf("lpn %d: flash metadata mismatch", lpn)
		}
	}
	done := f.ReadPages(0, 4, now)
	if done <= now {
		t.Fatal("read took no time")
	}
}

func TestIdealGCReclaimsSpace(t *testing.T) {
	cfg := testConfig()
	f, err := NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	rng := rand.New(rand.NewSource(1))
	now := nand.Time(0)
	// Overwrite the logical space several times: GC must fire and the
	// device must never wedge.
	for i := int64(0); i < 4*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.GCCount == 0 {
		t.Fatal("no GC despite 4x overwrite")
	}
	if f.BM.FreeBlocks() <= 0 {
		t.Fatal("no free blocks after GC")
	}
	// Shadow map still coherent after relocations.
	for lpn := int64(0); lpn < lp; lpn++ {
		if ppn := f.L2P.Get(lpn); ppn != nand.InvalidPPN {
			if f.Fl.PageOOB(ppn).Key != lpn || f.Fl.State(ppn) != nand.PageValid {
				t.Fatalf("lpn %d: mapping corrupted by GC", lpn)
			}
		}
	}
	// Write amplification must exceed 1 (GC moved pages).
	c := f.Fl.Counters()
	if c.Programs[nand.OpGC] == 0 {
		t.Fatal("GC moved no pages")
	}
	// The sustained overwrites, victim selection, relocation and erase
	// included, allocate nothing.
	gcs := f.Col.GCCount
	allocs := testing.AllocsPerRun(2000, func() {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	})
	if f.Col.GCCount == gcs {
		t.Fatal("no GC in the allocation window")
	}
	if allocs != 0 {
		t.Fatalf("overwrites with GC allocate %.2f times per write", allocs)
	}
}

func TestUpdateTransRMW(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	// First write: no prior version → no read.
	t1 := b.UpdateTrans(0, true, 0)
	c := b.Fl.Counters()
	if c.Reads[nand.OpTranslation] != 0 || c.Programs[nand.OpTranslation] != 1 {
		t.Fatalf("first update: reads=%d programs=%d", c.Reads[nand.OpTranslation], c.Programs[nand.OpTranslation])
	}
	if !b.GTD.Written(0) {
		t.Fatal("GTD not updated")
	}
	old := b.GTD.Lookup(0)
	// Second write: RMW.
	t2 := b.UpdateTrans(0, true, t1)
	if t2 <= t1 {
		t.Fatal("no time elapsed")
	}
	c = b.Fl.Counters()
	if c.Reads[nand.OpTranslation] != 1 || c.Programs[nand.OpTranslation] != 2 {
		t.Fatalf("second update: reads=%d programs=%d", c.Reads[nand.OpTranslation], c.Programs[nand.OpTranslation])
	}
	if b.Fl.State(old) != nand.PageInvalid {
		t.Fatal("old translation page not invalidated")
	}
}

func TestReadTransUnwritten(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	if done := b.ReadTrans(0, 100); done != 100 {
		t.Fatalf("unwritten translation read took time: %d", done)
	}
	cv := b.Fl.Counters()
	if cv.TotalReads() != 0 {
		t.Fatal("unwritten translation read hit flash")
	}
}

func TestGCRelocatesTranslationPages(t *testing.T) {
	cfg := testConfig()
	b, _ := NewBase(cfg)
	// Fill the device with translation page rewrites until GC fires.
	now := nand.Time(0)
	for i := 0; i < cfg.Geometry.TotalPages(); i++ {
		now = b.UpdateTrans(i%cfg.NumTPNs(), false, now)
	}
	if b.Col.GCCount == 0 {
		t.Fatal("no GC fired")
	}
	// All GTD locations must point at valid translation pages.
	for tpn := 0; tpn < cfg.NumTPNs(); tpn++ {
		p := b.GTD.Lookup(tpn)
		if b.Fl.State(p) != nand.PageValid {
			t.Fatalf("tpn %d points at %v page", tpn, b.Fl.State(p))
		}
		oob := b.Fl.PageOOB(p)
		if !oob.Trans || oob.Key != int64(tpn) {
			t.Fatalf("tpn %d OOB mismatch: %+v", tpn, oob)
		}
	}
}

// TestLoadMapStateRejectsMapsOffTheirPages: a mapped LPN's next write
// invalidates the page the L2P names, and a translation-page rewrite the
// page the GTD names, which panics unless that page is valid and holds the
// key, so a snapshot mapping a key to any other page is an error from the
// load. An untouched snapshot still loads.
func TestLoadMapStateRejectsMapsOffTheirPages(t *testing.T) {
	for name, c := range map[string]struct {
		edit func(f *Ideal)
		ok   bool
	}{
		"untouched":                 {func(*Ideal) {}, true},
		"LPN on an invalid page":    {func(f *Ideal) { f.L2P.Set(0, f.L2P.Get(2)); f.WritePages(2, 1, 0) }, false},
		"LPN on another LPN's page": {func(f *Ideal) { f.L2P.Set(0, f.L2P.Get(1)) }, false},
		"TPN on a data page":        {func(f *Ideal) { f.GTD.Update(0, f.L2P.Get(1)) }, false},
	} {
		src, err := NewIdeal(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		src.WritePages(0, 64, 0)
		c.edit(src)
		e := persist.NewEncoder()
		src.SaveState(e)
		dst, err := NewIdeal(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadState(persist.NewDecoder(e.Data())); (err == nil) != c.ok {
			t.Errorf("%s: LoadState returned %v", name, err)
		}
	}
}
