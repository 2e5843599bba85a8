package sim

import (
	"math/rand"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// runLinear is the frozen pre-refactor reference scheduler, kept verbatim
// (including its original clamp-after-record ordering): scan all alive
// threads for the earliest ready time, lowest index winning ties. The
// event-core scheduler in Run must reproduce its issue order exactly — this
// is the bit-for-bit pin that lets the host-layer refactor touch engine.go
// without moving any closed-loop number.
func runLinear(f ftl.FTL, gens []Generator, maxRequests int64) Result {
	start := f.Flash().MaxChipBusy()
	ready := make([]nand.Time, len(gens))
	alive := make([]bool, len(gens))
	for i := range ready {
		ready[i] = start
		alive[i] = true
	}
	col := f.Collector()
	var issued int64
	end := start
	for {
		th := -1
		for i := range gens {
			if alive[i] && (th == -1 || ready[i] < ready[th]) {
				th = i
			}
		}
		if th == -1 {
			break
		}
		if maxRequests > 0 && issued >= maxRequests {
			break
		}
		req, ok := gens[th].Next()
		if !ok {
			alive[th] = false
			continue
		}
		if req.Pages <= 0 {
			req.Pages = 1
		}
		now := ready[th]
		var done nand.Time
		if req.Write {
			done = f.WritePages(req.LPN, req.Pages, now)
			col.RecordWrite(done-now, req.Pages)
		} else {
			done = f.ReadPages(req.LPN, req.Pages, now)
			col.RecordRead(done-now, req.Pages)
		}
		if done < now {
			done = now
		}
		ready[th] = done
		if done > end {
			end = done
		}
		issued++
	}
	return Result{Start: start, End: end, Requests: issued}
}

// mixedGens builds a deterministic per-thread mix of reads and writes with
// uneven lengths, so threads retire at different times and ready-time ties
// occur (same-latency ops on idle chips complete simultaneously).
func mixedGens(threads, reqsPerThread int, lp int64, seed int64) []Generator {
	gens := make([]Generator, threads)
	for th := 0; th < threads; th++ {
		rng := rand.New(rand.NewSource(seed + int64(th)*1009))
		n := reqsPerThread - th%3 // uneven retirement
		i := 0
		gens[th] = GenFunc(func() (Request, bool) {
			if i >= n {
				return Request{}, false
			}
			i++
			pages := 1 + rng.Intn(2)
			return Request{
				Write: rng.Intn(3) == 0,
				LPN:   rng.Int63n(lp - int64(pages) + 1),
				Pages: pages,
			}, true
		})
	}
	return gens
}

// latencies snapshots the collector's per-request latency records.
func latencies(f ftl.FTL) (reads, writes []nand.Time) {
	col := f.Collector()
	// The collector does not expose its raw slices; reconstruct an
	// order-insensitive but duplicate-sensitive fingerprint from exact
	// percentiles over a fine grid plus the counts and means.
	grid := []float64{0.5, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for _, p := range grid {
		reads = append(reads, col.ReadPercentile(p))
		writes = append(writes, col.WritePercentile(p))
	}
	reads = append(reads, col.MeanReadLatency(), nand.Time(col.HostReads))
	writes = append(writes, col.MeanWriteLatency(), nand.Time(col.HostWrites))
	return reads, writes
}

// TestSchedMatchesLinearReference asserts the engine's scheduler reproduces
// the reference linear scan bit-for-bit: same Result and same latency
// records, for 1, 2, 3, 32 and 257 threads.
func TestSchedMatchesLinearReference(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 32, 257} {
		cfg := testConfig()
		lp := int64(cfg.LogicalPages())

		fa, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ra := Run(fa, mixedGens(threads, 40, lp, 42), 0)
		readsA, writesA := latencies(fa)

		fb, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rb := runLinear(fb, mixedGens(threads, 40, lp, 42), 0)
		readsB, writesB := latencies(fb)

		if ra != rb {
			t.Fatalf("threads=%d: scheduler result %+v != linear result %+v", threads, ra, rb)
		}
		for i := range readsA {
			if readsA[i] != readsB[i] {
				t.Fatalf("threads=%d: read latency fingerprint differs at %d: %d vs %d",
					threads, i, readsA[i], readsB[i])
			}
		}
		for i := range writesA {
			if writesA[i] != writesB[i] {
				t.Fatalf("threads=%d: write latency fingerprint differs at %d: %d vs %d",
					threads, i, writesA[i], writesB[i])
			}
		}
	}
}

// TestSchedMatchesLinearWithCap checks the maxRequests cut-off lands on the
// same request boundary in both schedulers.
func TestSchedMatchesLinearWithCap(t *testing.T) {
	cfg := testConfig()
	lp := int64(cfg.LogicalPages())
	fa, _ := ftl.NewIdeal(cfg)
	fb, _ := ftl.NewIdeal(cfg)
	ra := Run(fa, mixedGens(32, 100, lp, 7), 333)
	rb := runLinear(fb, mixedGens(32, 100, lp, 7), 333)
	if ra != rb {
		t.Fatalf("capped run diverged: %+v vs %+v", ra, rb)
	}
	if ra.Requests != 333 {
		t.Fatalf("issued %d, want 333", ra.Requests)
	}
}
