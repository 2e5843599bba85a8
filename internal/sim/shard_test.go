package sim

import (
	"testing"

	"learnedftl/internal/ftl"
)

// noShard wraps a device behind the bare FTL interface, hiding any
// ShardReader implementation the concrete type carries.
type noShard struct{ ftl.FTL }

// TestShardedMatchesSequential is the engine-level byte-identity pin:
// RunSharded must reproduce Run exactly — same Result, same collector
// records, same flash counters, same per-chip busy frontier — at worker
// counts 1, 2 and 8, on a read/write mix that exercises both the resolved
// fast path and the translation barrier.
func TestShardedMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		lp := cfg.LogicalPages()
		threads := 16

		fa, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ra := Run(fa, mixedGens(threads, 60, lp, 99), 0)
		readsA, writesA := latencies(fa)

		fb, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rb, st := RunSharded(fb, mixedGens(threads, 60, lp, 99), 0, workers)
		readsB, writesB := latencies(fb)

		if st.Fallback != "" {
			t.Fatalf("workers=%d: unexpected fallback %q", workers, st.Fallback)
		}
		if ra != rb {
			t.Fatalf("workers=%d: result %+v != sequential %+v", workers, rb, ra)
		}
		for i := range readsA {
			if readsA[i] != readsB[i] {
				t.Fatalf("workers=%d: read fingerprint[%d] = %d, want %d", workers, i, readsB[i], readsA[i])
			}
		}
		for i := range writesA {
			if writesA[i] != writesB[i] {
				t.Fatalf("workers=%d: write fingerprint[%d] = %d, want %d", workers, i, writesB[i], writesA[i])
			}
		}
		if ca, cb := fa.Flash().Counters(), fb.Flash().Counters(); ca != cb {
			t.Fatalf("workers=%d: flash counters %+v != %+v", workers, cb, ca)
		}
		if ba, bb := fa.Flash().MaxChipBusy(), fb.Flash().MaxChipBusy(); ba != bb {
			t.Fatalf("workers=%d: chip busy frontier %d != %d", workers, bb, ba)
		}
	}
}

// TestShardedMaxRequestsCap: the request cap cuts the sharded run at the
// same boundary as the sequential one, lazily-resolved reads included.
func TestShardedMaxRequestsCap(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		lp := cfg.LogicalPages()
		fa, _ := ftl.NewIdeal(cfg)
		fb, _ := ftl.NewIdeal(cfg)
		ra := Run(fa, mixedGens(8, 100, lp, 5), 123)
		rb, _ := RunSharded(fb, mixedGens(8, 100, lp, 5), 123, workers)
		if ra != rb {
			t.Fatalf("workers=%d: capped result %+v != sequential %+v", workers, rb, ra)
		}
	}
}

// TestShardedFallback: a device that exposes no ShardReader degrades to the
// sequential engine — reported in the stats, results still exact.
func TestShardedFallback(t *testing.T) {
	cfg := testConfig()
	lp := cfg.LogicalPages()
	fa, _ := ftl.NewIdeal(cfg)
	fb, _ := ftl.NewIdeal(cfg)
	ra := Run(fa, mixedGens(4, 50, lp, 3), 0)
	rb, st := RunSharded(noShard{fb}, mixedGens(4, 50, lp, 3), 0, 8)
	if st.Fallback == "" {
		t.Fatal("expected a fallback reason, got none")
	}
	if st.Workers != 1 {
		t.Fatalf("fallback workers = %d, want 1", st.Workers)
	}
	if ra != rb {
		t.Fatalf("fallback result %+v != sequential %+v", rb, ra)
	}
}

// TestShardedBarrierAccounting pins the engine's classification: on the
// ideal FTL every read resolves in DRAM (no barrier) and every write is a
// translation barrier. This is also the acceptance form of the speedup
// criterion on single-core runners: a read-dominated run must show
// barriers ≪ events.
func TestShardedBarrierAccounting(t *testing.T) {
	cfg := testConfig()
	lp := cfg.LogicalPages()

	// Populate, then measure a pure-read run.
	f, _ := ftl.NewIdeal(cfg)
	Warmed(f, []Generator{seqGen(0, int(lp), true)}, 0)
	reads := seqGen(0, int(lp), false)
	_, st := RunSharded(f, []Generator{reads}, 0, 2)
	if st.Barriers != 0 {
		t.Fatalf("pure-read run barriered %d times", st.Barriers)
	}
	if st.ResolvedReads != st.Events {
		t.Fatalf("resolved %d of %d read events", st.ResolvedReads, st.Events)
	}
	if st.ShardOps != st.Events {
		t.Fatalf("shard ops = %d, want %d", st.ShardOps, st.Events)
	}

	// A pure-write run barriers on every event.
	f2, _ := ftl.NewIdeal(cfg)
	_, st2 := RunSharded(f2, []Generator{seqGen(0, 200, true)}, 0, 2)
	if st2.Barriers != st2.Events || st2.ResolvedReads != 0 {
		t.Fatalf("pure-write run: %+v", st2)
	}
}

// TestWarmedReturnsResult: Warmed and WarmedSharded report the warm-up
// phase's own span and request count while still resetting all metrics.
func TestWarmedReturnsResult(t *testing.T) {
	fa, _ := ftl.NewIdeal(testConfig())
	ra := Warmed(fa, []Generator{seqGen(0, 300, true)}, 0)
	if ra.Requests != 300 || ra.Makespan() <= 0 {
		t.Fatalf("Warmed result %+v", ra)
	}
	if fa.Collector().HostWrites != 0 {
		t.Fatal("Warmed did not reset the collector")
	}
	if c := fa.Flash().Counters(); c.TotalPrograms() != 0 {
		t.Fatal("Warmed did not reset flash counters")
	}

	fb, _ := ftl.NewIdeal(testConfig())
	rb, st := WarmedSharded(fb, []Generator{seqGen(0, 300, true)}, 0, 2)
	if ra != rb {
		t.Fatalf("WarmedSharded result %+v != Warmed %+v", rb, ra)
	}
	if st.Workers != 2 {
		t.Fatalf("warm shard workers = %d", st.Workers)
	}
	if fb.Collector().HostWrites != 0 {
		t.Fatal("WarmedSharded did not reset the collector")
	}
	// Post-warm-up device state must match: same busy frontier and the
	// same lifetime counters after the reset fold.
	if ba, bb := fa.Flash().MaxChipBusy(), fb.Flash().MaxChipBusy(); ba != bb {
		t.Fatalf("warm busy frontier %d != %d", bb, ba)
	}
	la, lb := fa.Flash().LifetimeCounters(), fb.Flash().LifetimeCounters()
	if la != lb {
		t.Fatalf("warm lifetime counters %+v != %+v", lb, la)
	}
}

// TestShardedBatching: a single-thread run's source stays the scheduler's
// minimum throughout — every event after the first counts as batched.
func TestShardedBatching(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	_, st := RunSharded(f, []Generator{seqGen(0, 500, true)}, 0, 1)
	if st.Batched != st.Events-1 {
		t.Fatalf("batched %d of %d events", st.Batched, st.Events)
	}
}
