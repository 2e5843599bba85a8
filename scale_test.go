package learnedftl

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"learnedftl/internal/core"
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// TestScaleExperimentTinyRung runs the scale experiment windowed to its
// smallest rung: one row per scheme, with the footprint column reporting
// the packed layout's bytes per page.
func TestScaleExperimentTinyRung(t *testing.T) {
	b := sweepTestBudget(2)
	b.ScaleMaxGiB = 0.5 // tiny rung only
	tab := runTable(t, "scale", TinyConfig(), b)
	if len(tab.Rows) != len(Schemes()) {
		t.Fatalf("scale rows = %d, want %d (one rung x schemes)", len(tab.Rows), len(Schemes()))
	}
	for _, row := range tab.Rows {
		bpp, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("meta B/page column %q: %v", row[3], err)
		}
		if bpp > 4.5 { // 3.7x under the retired struct layout's 17 B/page
			t.Fatalf("scale reports %.2f B/page, want <= 4.5", bpp)
		}
		if !strings.HasSuffix(row[1], "GiB") {
			t.Fatalf("device column %q", row[1])
		}
	}
}

// TestScaleLadderWindow: an empty ladder window must error rather than
// produce an empty table, and every scaled-paper rung must leave the group
// allocator spare rows (the thrash guard).
func TestScaleLadderWindow(t *testing.T) {
	b := sweepTestBudget(1)
	b.ScaleMinGiB, b.ScaleMaxGiB = 3, 3.5 // between rungs
	if _, err := RunExperiments([]string{"scale"}, TinyConfig(), b); err == nil {
		t.Fatal("empty ladder window accepted")
	}
	for _, scale := range []int{16, 8, 4, 2, 1} {
		cfg, err := scaledPaperConfig(scale)
		if err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
		if spare := core.SpareRows(cfg); spare < 2 {
			t.Fatalf("scale %d rung has %d spare rows; group allocation would thrash", scale, spare)
		}
		if _, err := New(SchemeLearnedFTL, cfg); err != nil {
			t.Fatalf("scale %d rung does not construct: %v", scale, err)
		}
	}
	// PaperBudget must open the whole ladder: 7 rungs from 0.25 to 32 GiB,
	// ending at the paper's exact geometry at its own 8% over-provisioning.
	b = PaperBudget()
	b.Workers = 1
	rungs, err := scaleLadder(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rungs) != 7 {
		t.Fatalf("paper-budget ladder has %d rungs, want 7", len(rungs))
	}
	top := rungs[len(rungs)-1]
	if top.Geometry != nand.PaperGeometry() || top.OPRatio != PaperConfig().OPRatio {
		t.Fatalf("top rung is not the paper device: %+v", top.Geometry)
	}
}

// TestReportCarriesFootprint: every experiment report now records the
// device-model footprint, so the BENCH JSON captures the packed layout's
// memory win alongside wall clock.
func TestReportCarriesFootprint(t *testing.T) {
	f, err := New(SchemeDFTL, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	warmDevice(f, Budget{})
	r := measureFIO(f, workload.RandRead, 4, 1, 200)
	want := f.Flash().Footprint()
	if r.ModelBytes != want.TotalBytes || r.ModelBytesPerPage != want.BytesPerPage {
		t.Fatalf("report footprint = (%d, %v), want (%d, %v)",
			r.ModelBytes, r.ModelBytesPerPage, want.TotalBytes, want.BytesPerPage)
	}
	if r.ModelBytesPerPage > 4.5 { // 3.7x under the retired struct layout's 17 B/page
		t.Fatalf("packed layout spends %.2f B/page, want <= 4.5", r.ModelBytesPerPage)
	}
	if FootprintOf(TinyConfig()) != want {
		t.Fatal("FootprintOf diverges from the device's own footprint")
	}
}

// TestWarmedHeapBudget is the resident-size guard: the five schemes, built on
// the quick geometry and warmed the way every experiment warms them, may hold
// at most 55 heap bytes per physical page between them. The flash array's
// 4-byte keys and the 4-byte L2P are ≈ 34 of the ≈ 49 measured; at 8 bytes
// each the sum was 84.5, so a table growing back fails here and not only in
// bench/'s live_heap_mib.
func TestWarmedHeapBudget(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	cfg := QuickConfig()
	var live uint64
	for _, s := range Schemes() {
		before := heap()
		f, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warmDevice(f, QuickBudget())
		if after := heap(); after > before {
			live += after - before
			t.Logf("%-10v %.2f MiB", s, float64(after-before)/(1<<20))
		}
		runtime.KeepAlive(f)
	}
	perPage := float64(live) / float64(cfg.Geometry.TotalPages())
	t.Logf("five warmed devices: %.2f MiB, %.1f B per physical page", float64(live)/(1<<20), perPage)
	if perPage > 55 {
		t.Fatalf("five warmed devices hold %.1f heap bytes per physical page, want <= 55", perPage)
	}
}

// TestVictimIndexSublinearOnRealWorkload is the acceptance counter at the
// device level: a GC-heavy random-overwrite run must select victims while
// examining far fewer candidates per collection than the device has blocks
// — the proof selection is no longer the historical full scan.
func TestVictimIndexSublinearOnRealWorkload(t *testing.T) {
	cfg := TinyConfig()
	f, err := ftl.NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 2, 128, 1), 0)
	gens := workload.FIO(workload.RandWrite, lp, 1, 16, 800, 9)
	sim.Run(f, gens, 0)
	if f.Collector().GCCount == 0 {
		t.Fatal("workload did not trigger GC")
	}
	st := f.GC.IndexStats()
	if st.Selections == 0 {
		t.Fatal("victim index never selected")
	}
	perSelection := float64(st.Examined) / float64(st.Selections)
	total := float64(cfg.Geometry.TotalBlocks())
	if perSelection >= total/4 {
		t.Fatalf("victim selection examines %.1f candidates on a %d-block device — still near-linear",
			perSelection, cfg.Geometry.TotalBlocks())
	}
	t.Logf("victim index: %d selections, %.1f candidates examined each (device: %d blocks)",
		st.Selections, perSelection, cfg.Geometry.TotalBlocks())
}

// TestOpenLoopAllocBudget pins what an open-loop request may allocate: a
// fresh 100 000-request RunOpenWith — Poisson readers beside writers with
// idle-gap GC, bench/'s mixed_open in small — takes at most 12 heap bytes
// per request. The collector's share is 8: a latency stored once in a
// chunked arena; the queue wait only joins a per-bucket count and sum.
func TestOpenLoopAllocBudget(t *testing.T) {
	cfg := TinyConfig()
	f, err := ftl.NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 2, 128, 1), 0)
	f.Collector().Reset()
	const readers, writers, perReader, perWriter = 8, 2, 11_900, 2_400
	streams := workload.OpenFIO("reader", workload.RandRead, lp, 1, readers, perReader, sim.ArrivalPoisson, 20_000, 11)
	streams = append(streams, workload.OpenFIO("writer", workload.RandWrite, lp, 1, writers, perWriter, sim.ArrivalPoisson, 1_000, 13)...)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := sim.RunOpenWith(f, streams, sim.OpenOptions{BackgroundGC: true})
	runtime.ReadMemStats(&m1)
	if res.Requests != readers*perReader+writers*perWriter {
		t.Fatalf("engine issued %d requests", res.Requests)
	}
	perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Requests)
	t.Logf("%d requests, %.1f B allocated per request", res.Requests, perReq)
	if perReq > 12 {
		t.Fatalf("open-loop run allocated %.1f B per request, want <= 12", perReq)
	}
}
