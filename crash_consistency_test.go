package learnedftl

import (
	"strings"
	"testing"

	"learnedftl/internal/crash"
	"learnedftl/internal/fault"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// TestCrashCampaignAllSchemes is the tentpole acceptance criterion: the
// crashsweep campaign — crash-point enumeration through a write+GC window
// plus 40 seeded fuzz crashes per scheme (200 total) — must report zero
// lost acked writes and zero invariant violations for all five schemes,
// with every armed cut firing and recovering.
func TestCrashCampaignAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("200-crash campaign skipped in -short mode")
	}
	cfg := TinyConfig()
	// TinyBudget at 16 000 requests over 8 threads: the campaign window is
	// a quarter of the requests, long enough that every scheme collects
	// inside it.
	b := TinyBudget()
	b.Requests, b.Threads, b.Workers = 16000, 8, AutoWorkers()
	tab := runTable(t, "crashsweep", cfg, b)
	if len(tab.Rows) != len(Schemes()) {
		t.Fatalf("crashsweep rows = %d, want %d", len(tab.Rows), len(Schemes()))
	}
	for _, row := range tab.Rows {
		// Columns: FTL, window ops, GCs, points, fired, torn cuts,
		// lost acked, torn drop, lost maps, mount mean, mount max, verdict.
		if row[2] == "0" {
			t.Errorf("%s: campaign window ran no GC — not a write+GC-heavy window", row[0])
		}
		if row[3] != row[4] {
			t.Errorf("%s: fired %s of %s armed points", row[0], row[4], row[3])
		}
		if row[6] != "0" {
			t.Errorf("%s: %s acked writes lost across the campaign", row[0], row[6])
		}
		if row[11] != "clean" {
			t.Errorf("%s: campaign verdict %q", row[0], row[11])
		}
	}
}

// TestCrashRecoveryAtGCBoundaries covers recovery immediately after a
// garbage collection, without injection: for every scheme × GC policy,
// write until a chunk triggers at least one erase, then mount-recover right
// at that boundary and require the rebuilt L2P to equal the pre-recovery
// shadow map. A cut between a collection's relocations and its map updates
// is the classic torn-metadata window; this pins the uninjected half
// (collection fully done, DRAM dropped right after).
func TestCrashRecoveryAtGCBoundaries(t *testing.T) {
	for _, k := range GCPolicies() {
		for _, s := range Schemes() {
			t.Run(string(k)+"/"+s.String(), func(t *testing.T) {
				cfg := TinyConfig()
				cfg.GCPolicy = k
				f, err := New(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				lp := f.Config().LogicalPages()
				sim.Run(f, workload.Warmup(lp, 1, 128, 1), 0)
				found := false
				for chunk := 0; chunk < 120 && !found; chunk++ {
					before := f.Flash().Counters().Erases
					sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 2, 16, int64(chunk)*31+7), 0)
					if f.Flash().Counters().Erases == before {
						continue
					}
					// A collection finished inside this 32-request chunk:
					// recover at the boundary.
					found = true
					shadow := f.ShadowL2P()
					if _, err := RecoverFromCrash(f); err != nil {
						t.Fatal(err)
					}
					got := f.ShadowL2P()
					for i := range got {
						if got[i] != shadow[i] {
							t.Fatalf("recovered L2P[%d] = %d, shadow had %d", i, got[i], shadow[i])
						}
					}
				}
				if !found {
					t.Fatal("no GC boundary reached in 120 write chunks")
				}
			})
		}
	}
}

// TestRecoveryExcludesRetiredBadBlocks: after program-failure injection has
// grown bad blocks, a crash-recovery mount must skip them in the scan and
// rebuild an allocator that still excludes the bad list. LearnedFTL has no
// per-block retirement path and must keep rejecting program/erase fault
// injection at construction (documented in core.New).
func TestRecoveryExcludesRetiredBadBlocks(t *testing.T) {
	cfg := TinyConfig()
	cfg.Fault = fault.Default()
	cfg.Fault.Enabled = true
	cfg.Fault.ProgramFailProb = 0.002

	if _, err := New(SchemeLearnedFTL, cfg); err == nil ||
		!strings.Contains(err.Error(), "not supported by the group-granular FTL") {
		t.Fatalf("LearnedFTL accepted program-fault injection (err=%v)", err)
	}

	for _, s := range []Scheme{SchemeDFTL, SchemeTPFTL, SchemeLeaFTL, SchemeIdeal} {
		t.Run(s.String(), func(t *testing.T) {
			f, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lp := f.Config().LogicalPages()
			sim.Run(f, workload.Warmup(lp, 1, 128, 1), 0)
			for round := int64(0); f.Flash().BadBlocks() == 0 && round < 20; round++ {
				sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 4, 500, 300+round), 0)
			}
			bad := f.Flash().BadBlocks()
			if bad == 0 {
				t.Fatal("fault injection grew no bad blocks")
			}
			if _, err := RecoverFromCrash(f); err != nil {
				t.Fatal(err)
			}
			if got := f.MountScanStats().BadSkipped; got != int64(bad) {
				t.Fatalf("mount scan skipped %d bad blocks, flash has %d", got, bad)
			}
			// AllocInvariants includes "bad block in free stack" and
			// completeness checks: empty means the rebuilt allocator
			// excludes exactly the bad list.
			if v := f.AllocInvariants(); len(v) != 0 {
				t.Fatalf("allocator invariants violated after recovery: %v", v)
			}
			// Still operational on the surviving blocks.
			sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 2, 200, 9), 0)
		})
	}
}

// TestInjectCrashAPI: an injected cut on a device built by New fires,
// recovers and verifies clean, and a non-firing plan reports Fired=false.
func TestInjectCrashAPI(t *testing.T) {
	cfg := TinyConfig()
	f, err := New(SchemeDFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := f.Config().LogicalPages()
	gens := workload.FIO(workload.RandWrite, lp, 1, 4, 2000, 11)
	out := crash.Inject(f, gens, crash.Plan{AtOp: 701})
	if !out.Fired || out.Cut.Op != 701 {
		t.Fatalf("cut did not fire at op 701: %+v", out.Cut)
	}
	if !out.OK() {
		t.Fatalf("lost acked %d, violations %v", out.LostAcked, out.Violations)
	}

	g, err := New(SchemeDFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out = crash.Inject(g, workload.FIO(workload.RandWrite, lp, 1, 1, 10, 12), crash.Plan{AtOp: 1 << 40})
	if out.Fired {
		t.Fatal("cut fired beyond the window")
	}
}
