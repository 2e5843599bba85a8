package learnedftl

import (
	"strconv"
	"testing"

	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// TestGCSweepWAMonotonicInOP is the gcsweep acceptance bar: with the
// default greedy policy, write amplification must fall monotonically as
// the over-provisioning ratio grows. LearnedFTL is exempt at this window
// size: its group-granular GC moves thousands of pages per (rare)
// collection, so a 2000-request measurement window catches zero or one
// collections and the WA estimate is burst noise rather than a trend.
func TestGCSweepWAMonotonicInOP(t *testing.T) {
	cfg := TinyConfig()
	b := TinyBudget()
	b.Workers = 2
	tab := runNarrowed(t, "gcsweep", gcSweepGrid([]GCPolicy{gc.Greedy}), cfg, b)
	ratios := len(opLadder(cfg))
	if ratios < 3 {
		t.Fatalf("ladder too short (%d) to test monotonicity", ratios)
	}
	if len(tab.Rows) != len(Schemes())*ratios {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(Schemes())*ratios)
	}
	for si, s := range Schemes() {
		if s == SchemeLearnedFTL {
			continue
		}
		prev := -1.0
		for ri := 0; ri < ratios; ri++ {
			row := tab.Rows[si*ratios+ri]
			wa, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				t.Fatalf("bad WA cell %q: %v", row[3], err)
			}
			if wa < 1 {
				t.Fatalf("%s: WA %v < 1", row[0], wa)
			}
			if prev >= 0 && wa > prev {
				t.Fatalf("%s: WA rose from %.2f to %.2f as OP grew (%s -> %s)",
					row[0], prev, wa, tab.Rows[si*ratios+ri-1][2], row[2])
			}
			prev = wa
		}
	}
}

// TestBackgroundGCCutsWriteTail is the gclat acceptance bar: at a moderate
// offered load, background collection must cut P99.9 write latency versus
// foreground-only collection for the block-granular demand-paging schemes
// (the ones whose foreground GC lands on the write path's critical path).
func TestBackgroundGCCutsWriteTail(t *testing.T) {
	cfg := TinyConfig()
	b := TinyBudget()
	for _, s := range []Scheme{SchemeDFTL, SchemeTPFTL} {
		runMode := func(bg bool) (p999 int64, bgGCs int64) {
			f, err := newWarmed(s, cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			threads := b.Threads
			probe := measureFIO(f, workload.RandWrite, threads, 1, b.Requests/2)
			rate := 0.5 * probe.IOPS
			per := perThread(b.Requests, threads)
			streams := workload.OpenFIO("randwrite", workload.RandWrite,
				f.Config().LogicalPages(), 1, threads, per, sim.ArrivalPoisson, rate, 2221)
			r := measureOpen(f, streams, bg)
			return int64(r.P999), r.BGGCCount
		}
		fg, fgBG := runMode(false)
		bg, bgBG := runMode(true)
		if fgBG != 0 {
			t.Fatalf("%v: foreground mode ran %d background GCs", s, fgBG)
		}
		if bgBG == 0 {
			t.Fatalf("%v: background mode never collected in idle gaps", s)
		}
		if bg >= fg {
			t.Fatalf("%v: background GC did not cut P99.9 (%d -> %d ns)", s, fg, bg)
		}
	}
}

// TestTrimReducesWriteAmplification: discarding dead extents must lower
// write amplification versus the identical overwrite volume without
// trims — GC reclaims trimmed pages for free instead of relocating them.
func TestTrimReducesWriteAmplification(t *testing.T) {
	cfg := TinyConfig()
	run := func(trimEvery int) (wa float64, trims int64) {
		f, err := newWarmed(SchemeDFTL, cfg, TinyBudget())
		if err != nil {
			t.Fatal(err)
		}
		lp := f.Config().LogicalPages()
		gens := workload.TrimWrite(lp, 8, 8, 1200, trimEvery, 77)
		r := measure(f, gens)
		return r.WriteAmp, r.HostTrims
	}
	waPlain, trims := run(0)
	if trims != 0 {
		t.Fatal("trimEvery=0 still trimmed")
	}
	waTrim, trims := run(4)
	if trims == 0 {
		t.Fatal("no trims issued")
	}
	if waTrim >= waPlain {
		t.Fatalf("TRIM did not reduce WA: %.3f (trim) vs %.3f (plain)", waTrim, waPlain)
	}
}

// TestTrimAcrossAllSchemes: every scheme must survive a write/trim/read
// cycle and agree on the mapped set afterwards (trimmed = unmapped,
// reads of trimmed LPNs are served as unwritten).
func TestTrimAcrossAllSchemes(t *testing.T) {
	cfg := TinyConfig()
	lp := cfg.LogicalPages()
	for _, s := range Schemes() {
		f, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		now := f.WritePages(0, 256, 0)
		now = f.ReadPages(0, 64, now) // populate caches
		now = f.TrimPages(32, 128, now)
		l2p := f.ShadowL2P()
		for l := int64(0); l < 256; l++ {
			want := l < 32 || l >= 160
			mapped := l2p[l] != nand.InvalidPPN
			if s == SchemeLeaFTL {
				// Buffered writes are not in LeaFTL's L2P until flush; only
				// the trimmed range has a defined expectation.
				if !want && mapped {
					t.Fatalf("%v: lpn %d still mapped after trim", s, l)
				}
				continue
			}
			if mapped != want {
				t.Fatalf("%v: lpn %d mapped=%v after trim", s, l, mapped)
			}
		}
		// Reads over the trimmed range must not crash or fetch stale data.
		done := f.ReadPages(0, 256, now)
		if done < now {
			t.Fatalf("%v: read went backwards", s)
		}
		if f.Collector().HostTrims != 1 {
			t.Fatalf("%v: trim not recorded", s)
		}
		_ = lp
	}
}

// TestGCPolicySelectionViaConfig: every scheme constructs and runs under
// every policy, and the policy must actually change device behavior for
// the block-granular schemes under a skewed overwrite.
func TestGCPolicySelectionViaConfig(t *testing.T) {
	for _, k := range GCPolicies() {
		cfg := TinyConfig()
		cfg.GCPolicy = k
		for _, s := range Schemes() {
			f, err := New(s, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", s, k, err)
			}
			lp := cfg.LogicalPages()
			sim.Warmed(f, workload.Warmup(lp, 1, 128, 1), 0)
			res := sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 8, 100, 3), 0)
			if res.Requests != 800 {
				t.Fatalf("%v/%v: %d requests", s, k, res.Requests)
			}
		}
	}
	// Divergence check: greedy vs cost-benefit must place pages
	// differently under sustained random overwrites on a DFTL device.
	run := func(k GCPolicy) int64 {
		cfg := TinyConfig()
		cfg.GCPolicy = k
		f, err := New(SchemeDFTL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lp := cfg.LogicalPages()
		sim.Warmed(f, workload.Warmup(lp, 2, 128, 1), 0)
		sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 8, 500, 3), 0)
		c := f.Flash().Counters()
		return c.TotalPrograms()
	}
	if run(gc.Greedy) == run(gc.CostBenefit) {
		t.Fatal("greedy and cost-benefit produced identical flash schedules")
	}
}
