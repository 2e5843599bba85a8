package sim

import (
	"math/rand"
	"strconv"
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

// TestSchedOrdering unit-tests the scheduler's (time, index) ordering.
func TestSchedOrdering(t *testing.T) {
	sc := newSched(4, 100)
	// All equal: sources must come up in index order.
	for want := 0; want < 4; want++ {
		th, at := sc.min()
		if th != want || at != 100 {
			t.Fatalf("min = (%d,%d), want (%d,100)", th, at, want)
		}
		sc.advance(nand.Time(200 + want))
	}
	// Distinct times: sources come up in time order.
	for want := 0; want < 4; want++ {
		th, at := sc.min()
		if th != want || at != nand.Time(200+want) {
			t.Fatalf("min = (%d,%d), want (%d,%d)", th, at, want, 200+want)
		}
		sc.retire()
	}
	if sc.len() != 0 {
		t.Fatalf("len = %d after draining", sc.len())
	}
}

// linearSched is the reference the tournament tree is checked against: the
// frozen scheduler's scan (runLinear above) over explicit keys.
type linearSched struct {
	at    []nand.Time
	alive []bool
}

func (l *linearSched) len() int {
	n := 0
	for _, a := range l.alive {
		if a {
			n++
		}
	}
	return n
}

func (l *linearSched) min() (int, nand.Time) {
	th := -1
	for i := range l.at {
		if l.alive[i] && (th == -1 || l.at[i] < l.at[th]) {
			th = i
		}
	}
	return th, l.at[th]
}

// runnerUp returns the key of the earliest source other than the minimum.
func (l *linearSched) runnerUp() (nand.Time, bool) {
	w, _ := l.min()
	l.alive[w] = false
	defer func() { l.alive[w] = true }()
	if l.len() == 0 {
		return 0, false
	}
	_, at := l.min()
	return at, true
}

// TestSchedMatchesLinearScan drives the tree and the linear scan through
// the same randomized advance/retire sequence. Keys move in small steps so
// equal times are common; every fourth advance lands exactly on the
// runner-up's key (the source must then yield iff its index is higher);
// sources retire mid-run; and in the "joining" runs each source is first
// moved to its own time or retired. The non-power-of-two counts put
// never-eventing padding leaves beside live ones.
func TestSchedMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 32, 257} {
		for _, joining := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)*31 + 7))
			ref := &linearSched{at: make([]nand.Time, n), alive: make([]bool, n)}
			for i := range ref.at {
				ref.at[i], ref.alive[i] = 1000, true
				if joining {
					ref.at[i] = nand.Time(1000 + rng.Intn(4))
					ref.alive[i] = rng.Intn(5) != 0
				}
			}
			start := nand.Time(1000)
			if joining {
				start = 0 // below every joining time: sources come up in index order
			}
			sc := newSched(n, start)
			if joining {
				for i := range ref.at {
					if w, _ := sc.min(); w != i {
						t.Fatalf("n=%d: source %d came up while joining %d", n, w, i)
					}
					if ref.alive[i] {
						sc.advance(ref.at[i])
					} else {
						sc.retire()
					}
				}
			}
			for step := 0; ref.len() > 0; step++ {
				if sc.len() != ref.len() {
					t.Fatalf("n=%d joining=%v step %d: len %d, want %d", n, joining, step, sc.len(), ref.len())
				}
				w, at := sc.min()
				rw, rat := ref.min()
				if w != rw || at != rat {
					t.Fatalf("n=%d joining=%v step %d: min (%d,%d), want (%d,%d)", n, joining, step, w, at, rw, rat)
				}
				if step > 20*n || rng.Intn(8*n) == 0 {
					sc.retire()
					ref.alive[rw] = false
					continue
				}
				next := at + nand.Time(rng.Intn(3))
				if ru, ok := ref.runnerUp(); ok && step%4 == 0 {
					next = ru
				}
				sc.advance(next)
				ref.at[rw] = next
			}
			if sc.len() != 0 {
				t.Fatalf("n=%d joining=%v: len %d after the reference drained", n, joining, sc.len())
			}
		}
	}
}

// TestSchedPaddingLosesTies: three sources sit beside one padding leaf whose
// key is never. A live source one tick short of never still comes first,
// and ties between live sources at that key still break by index.
func TestSchedPaddingLosesTies(t *testing.T) {
	sc := newSched(3, 5)
	for i := 0; i < 3; i++ {
		sc.advance(never - 1)
	}
	for want := 0; want < 3; want++ {
		if th, at := sc.min(); th != want || at != never-1 {
			t.Fatalf("min = (%d,%d), want (%d,%d)", th, at, want, never-1)
		}
		sc.retire()
	}
	if sc.len() != 0 {
		t.Fatalf("len = %d after draining", sc.len())
	}
}

// TestSchedAdvanceZeroAlloc pins the per-event scheduling cost at no
// allocation.
func TestSchedAdvanceZeroAlloc(t *testing.T) {
	sc := newSched(257, 0)
	at := nand.Time(0)
	if a := testing.AllocsPerRun(1000, func() {
		at += 3
		sc.advance(at)
	}); a != 0 {
		t.Fatalf("advance allocates %.1f times per call", a)
	}
}

// BenchmarkSchedAdvance is one scheduling step of a closed loop — read the
// minimum, re-key it a little later — at the engine's three shapes: the
// single-generator warm-up (no internal node), FIO's 32 threads, and a
// non-power-of-two count with padding leaves.
func BenchmarkSchedAdvance(b *testing.B) {
	for _, n := range []int{1, 32, 257} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			sc := newSched(n, 0)
			rng := rand.New(rand.NewSource(1))
			steps := make([]nand.Time, 1024)
			for i := range steps {
				steps[i] = nand.Time(40_000 + rng.Intn(20_000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, at := sc.min()
				sc.advance(at + steps[i&1023])
			}
		})
	}
}
