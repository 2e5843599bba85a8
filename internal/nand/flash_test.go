package nand

import (
	"slices"
	"testing"
	"unsafe"
)

func newTestFlash(t *testing.T) *Flash {
	t.Helper()
	f, err := NewFlash(testGeom(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustFlash is the test-only shorthand for geometries built inline.
func mustFlash(g Geometry) *Flash {
	f, err := NewFlash(g, DefaultTiming())
	if err != nil {
		panic(err)
	}
	return f
}

func TestProgramReadInvalidateEraseLifecycle(t *testing.T) {
	f := newTestFlash(t)
	p := PPN(0)
	if f.State(p) != PageFree {
		t.Fatalf("new page state = %v", f.State(p))
	}
	done, err := f.Program(p, OOB{Key: 42}, 0, OpHostData)
	if err != nil {
		t.Fatal(err)
	}
	if done != f.Timing().ProgramLatency {
		t.Errorf("program done = %d, want %d", done, f.Timing().ProgramLatency)
	}
	if f.State(p) != PageValid || f.PageOOB(p).Key != 42 {
		t.Fatalf("post-program state=%v oob=%+v", f.State(p), f.PageOOB(p))
	}
	if err := f.Invalidate(p); err != nil {
		t.Fatal(err)
	}
	if f.State(p) != PageInvalid {
		t.Fatalf("post-invalidate state = %v", f.State(p))
	}
	if _, err := f.Erase(0, done); err != nil {
		t.Fatal(err)
	}
	if f.State(p) != PageFree || f.BlockWritePtr(0) != 0 {
		t.Fatal("erase did not reset block")
	}
	if f.BlockErases(0) != 1 {
		t.Errorf("BlockErases = %d, want 1", f.BlockErases(0))
	}
}

func TestProgramEnforcesInOrder(t *testing.T) {
	f := newTestFlash(t)
	// Skipping page 0 must fail.
	if _, err := f.Program(PPN(1), OOB{}, 0, OpHostData); err == nil {
		t.Fatal("out-of-order program accepted")
	}
	if _, err := f.Program(PPN(0), OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
	// Re-programming page 0 must fail.
	if _, err := f.Program(PPN(0), OOB{}, 0, OpHostData); err == nil {
		t.Fatal("double program accepted")
	}
	// Page 1 is now in order.
	if _, err := f.Program(PPN(1), OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
}

func TestEraseRejectsValidPages(t *testing.T) {
	f := newTestFlash(t)
	if _, err := f.Program(PPN(0), OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Erase(0, 0); err == nil {
		t.Fatal("erase of block with valid page accepted")
	}
	if err := f.Invalidate(PPN(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateRejectsNonValid(t *testing.T) {
	f := newTestFlash(t)
	if err := f.Invalidate(PPN(5)); err == nil {
		t.Fatal("invalidate of free page accepted")
	}
}

// TestChipSerialization verifies the timing core: two ops on the same chip
// serialize; ops on different chips overlap.
func TestChipSerialization(t *testing.T) {
	f := newTestFlash(t)
	rd := f.Timing().ReadLatency

	// Same chip (PPNs 0 and 1 are in the same block → same chip).
	d1 := f.Read(PPN(0), 0, OpHostData)
	d2 := f.Read(PPN(1), 0, OpHostData)
	if d1 != rd || d2 != 2*rd {
		t.Fatalf("same-chip reads done at %d,%d; want %d,%d", d1, d2, rd, 2*rd)
	}

	// Different chip: channel 1 way 0.
	other := f.Codec().Encode(Addr{Channel: 1})
	d3 := f.Read(other, 0, OpHostData)
	if d3 != rd {
		t.Fatalf("cross-chip read done at %d, want %d (no serialization)", d3, rd)
	}
}

func TestDependencyOrdering(t *testing.T) {
	f := newTestFlash(t)
	rd := f.Timing().ReadLatency
	// An op whose dependency completes after the chip goes idle starts at
	// the dependency time, not the chip-idle time.
	dep := Time(10 * rd)
	done := f.Read(PPN(0), dep, OpHostData)
	if done != dep+rd {
		t.Fatalf("read after dep done at %d, want %d", done, dep+rd)
	}
}

func TestCountersByKind(t *testing.T) {
	f := newTestFlash(t)
	f.Read(PPN(0), 0, OpHostData)
	f.Read(PPN(0), 0, OpTranslation)
	f.Read(PPN(0), 0, OpTranslation)
	if _, err := f.Program(PPN(0), OOB{}, 0, OpGC); err != nil {
		t.Fatal(err)
	}
	cv := f.Counters()
	c := &cv
	if c.Reads[OpHostData] != 1 || c.Reads[OpTranslation] != 2 {
		t.Fatalf("read counters %+v", c.Reads)
	}
	if c.Programs[OpGC] != 1 || c.TotalPrograms() != 1 {
		t.Fatalf("program counters %+v", c.Programs)
	}
	if c.TotalReads() != 3 {
		t.Fatalf("TotalReads = %d", c.TotalReads())
	}
	f.ResetCounters()
	cv = f.Counters()
	if cv.TotalReads() != 0 {
		t.Fatal("ResetCounters did not reset")
	}
}

func TestEnergyAccounting(t *testing.T) {
	var c OpCounters
	c.Reads[OpHostData] = 10
	c.Programs[OpGC] = 2
	c.Erases = 1
	e := Energy{ReadEnergy: 3, ProgramEnergy: 7, EraseEnergy: 11}
	if got, want := c.EnergyNJ(e), int64(10*3+2*7+11); got != want {
		t.Fatalf("EnergyNJ = %d, want %d", got, want)
	}
}

func TestBlockFreePages(t *testing.T) {
	f := newTestFlash(t)
	g := f.Geometry()
	if got := f.BlockFreePages(0); got != g.PagesPerBlock {
		t.Fatalf("fresh block free pages = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Program(PPN(i), OOB{}, 0, OpHostData); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.BlockFreePages(0); got != g.PagesPerBlock-3 {
		t.Fatalf("free pages = %d, want %d", got, g.PagesPerBlock-3)
	}
	if got := f.BlockValid(0); got != 3 {
		t.Fatalf("BlockValid = %d, want 3", got)
	}
}

func TestMaxChipBusy(t *testing.T) {
	f := newTestFlash(t)
	if f.MaxChipBusy() != 0 {
		t.Fatal("fresh flash busy")
	}
	f.Read(PPN(0), 0, OpHostData)
	if f.MaxChipBusy() != f.Timing().ReadLatency {
		t.Fatalf("MaxChipBusy = %d", f.MaxChipBusy())
	}
}

// checkMaxBusy compares the running maximum MaxChipBusy returns with the
// scan over every chip's clock that it replaced.
func checkMaxBusy(t *testing.T, f *Flash, after string) {
	t.Helper()
	var scan Time
	for c := 0; c < f.Geometry().Chips(); c++ {
		scan = max(scan, f.ChipBusyUntil(c))
	}
	if got := f.MaxChipBusy(); got != scan {
		t.Fatalf("after %s: MaxChipBusy = %d, the chips' clocks say %d", after, got, scan)
	}
}

// TestMaxChipBusyMatchesScan: the running maximum equals the scan after a
// read and a program of every op kind (plain, and under a fault model that
// retries), after erases, and after each
// writer that sets the clocks wholesale — the crash cut's PowerCycle, which
// moves them backwards, AdvanceIdle and ImportState.
func TestMaxChipBusyMatchesScan(t *testing.T) {
	f := newTestFlash(t)
	g := f.Geometry()
	ppb := PPN(g.PagesPerBlock)
	now := Time(0)
	for kind := OpKind(0); kind < opKinds; kind++ {
		blk := PPN(int(kind) * 3) // blocks on different chips
		for i := PPN(0); i < 4; i++ {
			done, err := f.Program(blk*ppb+i, OOB{Key: int64(i)}, now, kind)
			if err != nil {
				t.Fatal(err)
			}
			checkMaxBusy(t, f, "program "+kind.String())
			now = done / 2 // later ops start before earlier ones end
		}
		f.Read(blk*ppb, now, kind)
		checkMaxBusy(t, f, "read "+kind.String())
		f.ReadChecked(blk*ppb+1, now, kind)
		checkMaxBusy(t, f, "checked read "+kind.String())
	}
	f.SetFaultModel(ladderStub{out: ReadOutcome{Retries: 3}})
	f.Read(PPN(0), f.MaxChipBusy()+5, OpHostData)
	checkMaxBusy(t, f, "read with retries")
	f.SetFaultModel(nil)

	for i := PPN(0); i < 4; i++ {
		if err := f.Invalidate(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Erase(0, f.MaxChipBusy()); err != nil {
		t.Fatal(err)
	}
	checkMaxBusy(t, f, "erase")

	snap := f.ExportState()
	f.AdvanceIdle(Second)
	checkMaxBusy(t, f, "AdvanceIdle")
	if f.MaxChipBusy() != slices.Max(snap.ChipBusy)+Second {
		t.Fatal("AdvanceIdle did not move the clocks by d past the maximum")
	}

	f.ArmCut(1, 0, false)
	cut := catchCut(t, func() { f.Read(PPN(ppb), f.MaxChipBusy(), OpHostData) })
	f.PowerCycle(cut.Time / 2) // clocks move backwards
	checkMaxBusy(t, f, "crash cut + PowerCycle")
	f.Read(PPN(ppb), 0, OpGC)
	checkMaxBusy(t, f, "read after PowerCycle")

	if err := f.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	checkMaxBusy(t, f, "ImportState")
	if f.MaxChipBusy() != slices.Max(snap.ChipBusy) || f.MaxChipBusy() == 0 {
		t.Fatalf("ImportState left MaxChipBusy = %d", f.MaxChipBusy())
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{OpHostData: "host", OpTranslation: "translation", OpGC: "gc"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestEraseClearsBlockLastMod is the regression test for the stale-age
// bug: Erase used to leave blockMeta.lastMod from the block's previous
// life, so age-aware GC policies could compute a freshly reopened block's
// age from a program that no longer exists.
func TestEraseClearsBlockLastMod(t *testing.T) {
	g := Geometry{Channels: 1, Ways: 1, Planes: 1, BlocksPerUnit: 2, PagesPerBlock: 4, PageSize: 4096}
	f := mustFlash(g)
	var now Time
	for i := 0; i < g.PagesPerBlock; i++ {
		done, err := f.Program(PPN(i), OOB{Key: int64(i)}, now, OpHostData)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if f.BlockLastMod(0) == 0 {
		t.Fatal("programs did not stamp lastMod")
	}
	for i := 0; i < g.PagesPerBlock; i++ {
		if err := f.Invalidate(PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Erase(0, now); err != nil {
		t.Fatal(err)
	}
	if got := f.BlockLastMod(0); got != 0 {
		t.Fatalf("erase left lastMod = %d from the block's previous life, want 0", got)
	}
}

// TestPackedBitmapBlockBoundaries exercises the packed page-state bitmaps
// with a PagesPerBlock that does not divide the 64-bit word size, so block
// bit ranges straddle word boundaries: programs, invalidations, erases and
// the valid-bitmap iterator must stay confined to their block.
func TestPackedBitmapBlockBoundaries(t *testing.T) {
	g := Geometry{Channels: 1, Ways: 1, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 12, PageSize: 4096}
	f := mustFlash(g)
	ppb := int64(g.PagesPerBlock)
	// Fill blocks 0..3 fully; invalidate a scattered subset in each.
	for blk := int64(0); blk < 4; blk++ {
		for i := int64(0); i < ppb; i++ {
			if _, err := f.Program(PPN(blk*ppb+i), OOB{Key: blk*100 + i}, 0, OpHostData); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range []int64{0, 5, 11, 12, 23, 36, 40, 47} {
		if err := f.Invalidate(PPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	// AppendValidPages per block must match a per-page State probe exactly.
	var got []PPN
	for blk := 0; blk < g.TotalBlocks(); blk++ {
		got = f.AppendValidPages(blk, got[:0])
		var want []PPN
		for i := int64(0); i < ppb; i++ {
			p := PPN(int64(blk)*ppb + i)
			if f.State(p) == PageValid {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: AppendValidPages len %d, want %d", blk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d: valid page %d = %d, want %d", blk, i, got[i], want[i])
			}
		}
		if f.BlockValid(blk) != len(want) {
			t.Fatalf("block %d: BlockValid %d, want %d", blk, f.BlockValid(blk), len(want))
		}
	}
	// Erasing block 1 (its bits straddle words 0 and 1) must clear exactly
	// its own range: neighbours keep their states and OOBs.
	for i := int64(0); i < ppb; i++ {
		p := PPN(ppb + i)
		if f.State(p) == PageValid {
			if err := f.Invalidate(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := f.Erase(1, 0); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < ppb; i++ {
		if st := f.State(PPN(ppb + i)); st != PageFree {
			t.Fatalf("erased block 1 page %d state %v", i, st)
		}
		if oob := f.PageOOB(PPN(ppb + i)); oob != (OOB{}) {
			t.Fatalf("erased block 1 page %d kept OOB %+v", i, oob)
		}
	}
	if f.State(PPN(ppb-1)) == PageFree || f.State(PPN(2*ppb)) != PageValid {
		t.Fatal("erase leaked into a neighbouring block")
	}
	if f.PageOOB(PPN(2*ppb)).Key != 200 {
		t.Fatalf("neighbour OOB clobbered: %+v", f.PageOOB(PPN(2*ppb)))
	}
}

// TestOOBTagRoundTrip pins the tagged-key packing: Trans rides in the tag
// bit, keys (LPNs/TPNs) up to the 31-bit device limit round-trip exactly, and
// negative keys — which would collide with the tag — are rejected.
func TestOOBTagRoundTrip(t *testing.T) {
	f := newTestFlash(t)
	cases := []OOB{{Key: 0}, {Key: 0, Trans: true}, {Key: 1 << 30}, {Key: (1 << 30) + 1, Trans: true},
		{Key: MaxPages}, {Key: MaxPages, Trans: true}}
	for i, oob := range cases {
		if _, err := f.Program(PPN(i), oob, 0, OpHostData); err != nil {
			t.Fatal(err)
		}
		if got := f.PageOOB(PPN(i)); got != oob {
			t.Fatalf("OOB round-trip: got %+v, want %+v", got, oob)
		}
	}
	if _, err := f.Program(PPN(len(cases)), OOB{Key: -1}, 0, OpHostData); err == nil {
		t.Fatal("negative OOB key accepted")
	}
}

// TestProgramRejectsKeyPast31Bits: a key the packed 32 bits cannot hold is an
// error, not a truncation, and the refused program consumes nothing — the
// page stays free and the block's write pointer does not move.
func TestProgramRejectsKeyPast31Bits(t *testing.T) {
	f := newTestFlash(t)
	for _, key := range []int64{1 << 31, 1 << 40, -1} {
		if _, err := f.Program(0, OOB{Key: key}, 0, OpHostData); err == nil {
			t.Fatalf("OOB key %d accepted", key)
		}
		if f.State(0) != PageFree || f.BlockWritePtr(0) != 0 || f.BlockValid(0) != 0 {
			t.Fatalf("refused program of key %d left state %v, write pointer %d, valid %d",
				key, f.State(0), f.BlockWritePtr(0), f.BlockValid(0))
		}
	}
	if _, err := f.Program(0, OOB{Key: 7}, 0, OpHostData); err != nil {
		t.Fatalf("page unusable after refused programs: %v", err)
	}
}

// TestFootprintPackedVsStructLayout is the footprint acceptance bar: the
// packed metadata must spend at most 4.5 resident bytes per physical page —
// 3.7x under the 17 of the retired struct layout (1-byte state + 16-byte
// OOB) — and FootprintFor must describe the arrays NewFlash really builds.
func TestFootprintPackedVsStructLayout(t *testing.T) {
	for _, g := range []Geometry{testGeom(), PaperGeometry()} {
		fp := FootprintFor(g)
		if fp.BytesPerPage <= 0 {
			t.Fatalf("degenerate footprint %+v", fp)
		}
		if fp.BytesPerPage > 4.5 {
			t.Fatalf("packed layout spends %.2f B/page, want <= 4.5", fp.BytesPerPage)
		}
		if fp.TotalBytes != fp.PageMetaBytes+fp.BlockMetaBytes+fp.ChipBytes {
			t.Fatalf("footprint totals inconsistent: %+v", fp)
		}
	}
	f := newTestFlash(t)
	if f.Footprint() != FootprintFor(f.Geometry()) {
		t.Fatal("Flash.Footprint diverges from FootprintFor")
	}
	built := int64(8*(len(f.programmed)+len(f.valid))) + int64(len(f.keys))*int64(unsafe.Sizeof(f.keys[0]))
	if got := f.Footprint().PageMetaBytes; got != built {
		t.Fatalf("FootprintFor reports %d page-metadata bytes, the arrays hold %d", got, built)
	}
}

// TestFlashExportImportRoundTrip: ImportState must reproduce an exported
// array exactly — page states, OOB, write pointers, valid counts, erase
// counts, recency, chip schedules and both counter sets.
func TestFlashExportImportRoundTrip(t *testing.T) {
	g := Geometry{Channels: 2, Ways: 1, Planes: 1, BlocksPerUnit: 2, PagesPerBlock: 4, PageSize: 4096}
	f := mustFlash(g)
	var now Time
	for i := 0; i < 6; i++ {
		p := PPN(i)
		if i >= 4 {
			p = PPN(g.PagesPerBlock + (i - 4)) // second block of chip 0
		}
		done, err := f.Program(p, OOB{Key: int64(100 + i), Trans: i%2 == 0}, now, OpHostData)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if err := f.Invalidate(1); err != nil {
		t.Fatal(err)
	}
	f.Read(0, now, OpTranslation)
	f.ResetCounters() // lifetime accumulates, current zeroes
	f.Read(2, now, OpGC)

	g2 := mustFlash(g)
	if err := g2.ImportState(f.ExportState()); err != nil {
		t.Fatal(err)
	}
	for p := PPN(0); p < PPN(g.TotalPages()); p++ {
		if g2.State(p) != f.State(p) || g2.PageOOB(p) != f.PageOOB(p) {
			t.Fatalf("page %d diverged after import", p)
		}
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		if g2.BlockValid(b) != f.BlockValid(b) || g2.BlockWritePtr(b) != f.BlockWritePtr(b) ||
			g2.BlockErases(b) != f.BlockErases(b) || g2.BlockLastMod(b) != f.BlockLastMod(b) {
			t.Fatalf("block %d metadata diverged after import", b)
		}
	}
	for c := 0; c < g.Chips(); c++ {
		if g2.ChipBusyUntil(c) != f.ChipBusyUntil(c) {
			t.Fatalf("chip %d schedule diverged after import", c)
		}
	}
	if g2.Counters() != f.Counters() || g2.LifetimeCounters() != f.LifetimeCounters() {
		t.Fatal("counters diverged after import")
	}

	// A hole in the programmed prefix must be rejected.
	bad := f.ExportState()
	bad.Programmed[0] &^= 1 // page 1 of block 0 remains programmed
	bad.Valid[0] &^= 1
	if err := mustFlash(g).ImportState(bad); err == nil {
		t.Fatal("import accepted a programmed page above a free one")
	}

	// A valid bit on an unprogrammed page must be rejected.
	bad2 := f.ExportState()
	lastPage := int64(g.TotalPages() - 1)
	bad2.Valid[lastPage>>6] |= 1 << (uint(lastPage) & 63)
	if err := mustFlash(g).ImportState(bad2); err == nil {
		t.Fatal("import accepted a valid bit without a programmed bit")
	}
}
