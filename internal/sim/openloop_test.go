package sim

import (
	"math"
	"math/rand"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// TestArrivalsMatchPerFetchDraws pins each arrival process's instants: a
// Poisson clock's, drawn a batch ahead, equal one ExpFloat64 per stamped
// request from rand.NewSource(Seed) accumulated in float64; a fixed
// clock's are start + round(k/Rate); an unbounded clock's, and a rated
// stream's of Rate 0 or NaN, are all the start. Before each stamp the
// request's arrival is already due: the engine re-keys a source to it
// without fetching the request.
func TestArrivalsMatchPerFetchDraws(t *testing.T) {
	const n, start = 300, nand.Time(12_345)
	for _, s := range []Stream{
		{Kind: ArrivalPoisson, Rate: 20_000, Seed: 11},
		{Kind: ArrivalPoisson, Rate: 1_250, Seed: 13 + 6151},
		{Kind: ArrivalPoisson, Rate: 3e6, Seed: -4},
		{Kind: ArrivalFixed, Rate: 30_000},
		{Kind: ArrivalUnbounded},
		{Kind: ArrivalPoisson},
		{Kind: ArrivalFixed, Rate: math.NaN()},
	} {
		c := newClock(s)
		rng := rand.New(rand.NewSource(s.Seed))
		var clock float64
		for i := 0; i < n; i++ {
			want := start
			if s.Rate > 0 {
				want += nand.Time(math.Round(clock))
				switch s.Kind {
				case ArrivalFixed:
					clock += float64(nand.Second) / s.Rate
				case ArrivalPoisson:
					clock += rng.ExpFloat64() * (float64(nand.Second) / s.Rate)
				}
			}
			if due := c.due(start); due != want {
				t.Fatalf("%v rate %g: arrival %d due at %d, want %d", s.Kind, s.Rate, i, due, want)
			}
			if at := c.stamp(start); at != want {
				t.Fatalf("%v rate %g: arrival %d stamped %d, want %d", s.Kind, s.Rate, i, at, want)
			}
		}
	}
}

// TestPoissonFetchZeroAlloc: stamping Poisson arrivals, gap refills
// included, allocates nothing.
func TestPoissonFetchZeroAlloc(t *testing.T) {
	c := newClock(Stream{Kind: ArrivalPoisson, Rate: 1e4, Seed: 1})
	allocs := testing.AllocsPerRun(5, func() {
		for range 4 * len(c.gaps) { // four refills
			c.stamp(0)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per %d stamps, want 0", allocs, 4*len(c.gaps))
	}
}

// unboundedStreams wraps closed-loop generators as open-loop streams with
// back-pressure-only arrivals, the configuration that must reproduce the
// closed-loop schedule exactly.
func unboundedStreams(gens []Generator) []Stream {
	streams := make([]Stream, len(gens))
	for i, g := range gens {
		streams[i] = Stream{Name: "t", Gen: g, Kind: ArrivalUnbounded}
	}
	return streams
}

// serviceFingerprint mirrors sched_test's latencies() but over the
// device-service component, which for a closed-loop run equals the
// recorded latency and for an open-loop run is latency minus queue wait.
func serviceFingerprint(f ftl.FTL) (reads, writes []nand.Time) {
	col := f.Collector()
	grid := []float64{0.5, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for _, p := range grid {
		reads = append(reads, col.ReadServicePercentile(p))
		writes = append(writes, col.WriteServicePercentile(p))
	}
	reads = append(reads, nand.Time(col.HostReads))
	writes = append(writes, nand.Time(col.HostWrites))
	return reads, writes
}

// TestOpenUnboundedMatchesClosedLoop is the refactor-seam pin: open-loop
// streams with unbounded arrivals must schedule identically to closed-loop
// threads driving the same generators — same Result, same flash-op
// counters, same per-request device-service times.
func TestOpenUnboundedMatchesClosedLoop(t *testing.T) {
	for _, threads := range []int{1, 7, 32} {
		cfg := testConfig()
		lp := int64(cfg.LogicalPages())

		fc, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc := Run(fc, mixedGens(threads, 40, lp, 42), 0)
		readsC, writesC := serviceFingerprint(fc)

		fo, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ro := RunOpen(fo, unboundedStreams(mixedGens(threads, 40, lp, 42)), 0)
		readsO, writesO := serviceFingerprint(fo)

		if rc != ro {
			t.Fatalf("threads=%d: closed %+v != open %+v", threads, rc, ro)
		}
		if fc.Flash().Counters() != fo.Flash().Counters() {
			t.Fatalf("threads=%d: flash schedules diverged:\nclosed %+v\nopen %+v",
				threads, fc.Flash().Counters(), fo.Flash().Counters())
		}
		for i := range readsC {
			if readsC[i] != readsO[i] {
				t.Fatalf("threads=%d: read service fingerprint differs at %d: %d vs %d",
					threads, i, readsC[i], readsO[i])
			}
		}
		for i := range writesC {
			if writesC[i] != writesO[i] {
				t.Fatalf("threads=%d: write service fingerprint differs at %d: %d vs %d",
					threads, i, writesC[i], writesO[i])
			}
		}
	}
}

// TestOpenUnboundedMatchesClosedLoopWithCap checks the maxRequests cut-off
// lands on the same request boundary in both host models.
func TestOpenUnboundedMatchesClosedLoopWithCap(t *testing.T) {
	cfg := testConfig()
	lp := int64(cfg.LogicalPages())
	fc, _ := ftl.NewIdeal(cfg)
	fo, _ := ftl.NewIdeal(cfg)
	rc := Run(fc, mixedGens(16, 100, lp, 7), 333)
	ro := RunOpen(fo, unboundedStreams(mixedGens(16, 100, lp, 7)), 333)
	if rc != ro {
		t.Fatalf("capped runs diverged: closed %+v open %+v", rc, ro)
	}
}

// poissonStreams builds n single-page random-read streams at the given
// per-stream rate.
func poissonStreams(n int, lp int64, perStream int, rate float64) []Stream {
	streams := make([]Stream, n)
	for i := 0; i < n; i++ {
		streams[i] = Stream{
			Name: "rd",
			Gen:  seqGen(int64(i*perStream)%lp, perStream, false),
			Kind: ArrivalPoisson,
			Rate: rate,
			Seed: 900 + int64(i),
		}
	}
	return streams
}

// TestOpenPoissonDeterministic: identical seeds must yield bit-identical
// runs — Result and latency population.
func TestOpenPoissonDeterministic(t *testing.T) {
	mk := func() (Result, []nand.Time) {
		f, _ := ftl.NewIdeal(testConfig())
		Run(f, []Generator{seqGen(0, 64, true)}, 0) // map some pages
		f.Collector().Reset()
		res := RunOpen(f, poissonStreams(4, 64, 32, 20000), 0)
		reads, _ := serviceFingerprint(f)
		reads = append(reads, f.Collector().Percentile(99.9), f.Collector().MeanQueueWait())
		return res, reads
	}
	ra, fa := mk()
	rb, fb := mk()
	if ra != rb {
		t.Fatalf("nondeterministic Poisson run: %+v vs %+v", ra, rb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("latency fingerprint differs at %d: %d vs %d", i, fa[i], fb[i])
		}
	}
}

// TestOpenLoopQueueingUnderOverload: offering far more than the device can
// serve must accumulate queue wait that dominates total latency, while an
// offered rate far below capacity sees essentially no wait.
func TestOpenLoopQueueingUnderOverload(t *testing.T) {
	cfg := testConfig()
	run := func(rate float64) *stats.Collector {
		f, _ := ftl.NewIdeal(cfg)
		Run(f, []Generator{seqGen(0, 128, true)}, 0)
		f.Collector().Reset()
		streams := []Stream{{
			Name: "rd", Gen: seqGen(0, 128, false),
			Kind: ArrivalFixed, Rate: rate,
		}}
		RunOpen(f, streams, 0)
		return f.Collector()
	}
	// One stream, 40µs reads: capacity is 25k IOPS. 1M IOPS is deep
	// overload; 1k IOPS is a nearly idle device.
	over := run(1_000_000)
	if share := over.QueueWaitShare(); share < 0.5 {
		t.Fatalf("overload wait share = %.2f, want > 0.5", share)
	}
	if over.MeanLatency() <= over.MeanReadLatency()/2 {
		t.Fatal("overload totals should be wait-dominated")
	}
	idle := run(1_000)
	if share := idle.QueueWaitShare(); share > 0.01 {
		t.Fatalf("idle wait share = %.4f, want ~0", share)
	}
}

// TestOpenLoopFixedPacing: at a low fixed rate the run's virtual span is
// set by the arrival schedule, not by device speed.
func TestOpenLoopFixedPacing(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 64, true)}, 0)
	f.Collector().Reset()
	const n, rate = 50, 10_000 // 100µs apart, 40µs service
	res := RunOpen(f, []Stream{{
		Name: "rd", Gen: seqGen(0, n, false), Kind: ArrivalFixed, Rate: rate,
	}}, 0)
	interval := nand.Time(float64(nand.Second) / rate)
	if min := nand.Time(n-1) * interval; res.Makespan() < min {
		t.Fatalf("makespan %d shorter than the arrival schedule %d", res.Makespan(), min)
	}
}

// TestOpenLoopPerStreamBuckets: per-stream tracking groups same-named
// streams into one tenant bucket and keeps distinct tenants separate.
func TestOpenLoopPerStreamBuckets(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 128, true)}, 0)
	f.Collector().Reset()
	streams := []Stream{
		{Name: "a", Gen: seqGen(0, 10, false), Kind: ArrivalUnbounded},
		{Name: "b", Gen: seqGen(16, 20, false), Kind: ArrivalUnbounded},
		{Name: "a", Gen: seqGen(32, 5, false), Kind: ArrivalUnbounded},
	}
	RunOpen(f, streams, 0)
	buckets := f.Collector().Streams()
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	if buckets[0].Name != "a" || buckets[0].Requests() != 15 {
		t.Fatalf("bucket a: %q with %d requests", buckets[0].Name, buckets[0].Requests())
	}
	if buckets[1].Name != "b" || buckets[1].Requests() != 20 {
		t.Fatalf("bucket b: %q with %d requests", buckets[1].Name, buckets[1].Requests())
	}
	if buckets[0].Percentile(100) <= 0 || buckets[1].Mean() <= 0 {
		t.Fatal("bucket latencies not recorded")
	}
}

// backwardsFTL returns completion times earlier than the issue time — the
// pathological input the engines must clamp before recording.
type backwardsFTL struct {
	cfg ftl.Config
	fl  *nand.Flash
	col *stats.Collector
}

func newBackwardsFTL(t *testing.T) *backwardsFTL {
	t.Helper()
	cfg := testConfig()
	fl, err := nand.NewFlash(cfg.Geometry, cfg.Timing)
	if err != nil {
		t.Fatal(err)
	}
	return &backwardsFTL{cfg: cfg, fl: fl, col: stats.NewCollector()}
}

func (b *backwardsFTL) Name() string                                       { return "backwards" }
func (b *backwardsFTL) ReadPages(_ int64, _ int, now nand.Time) nand.Time  { return now - 5 }
func (b *backwardsFTL) WritePages(_ int64, _ int, now nand.Time) nand.Time { return now - 7 }
func (b *backwardsFTL) TrimPages(_ int64, _ int, now nand.Time) nand.Time  { return now }
func (b *backwardsFTL) Collector() *stats.Collector                        { return b.col }
func (b *backwardsFTL) Flash() *nand.Flash                                 { return b.fl }
func (b *backwardsFTL) Config() ftl.Config                                 { return b.cfg }

// TestIssueClampsBackwardsCompletion is the regression test for the
// record-before-clamp bug: a backwards completion time must never surface
// as a negative recorded latency, in either host model.
func TestIssueClampsBackwardsCompletion(t *testing.T) {
	f := newBackwardsFTL(t)
	res := Run(f, []Generator{seqGen(0, 4, false), seqGen(0, 4, true)}, 0)
	if res.Makespan() != 0 {
		t.Fatalf("clamped run advanced time: %+v", res)
	}
	if got := f.col.ReadPercentile(100); got != 0 {
		t.Fatalf("closed-loop recorded read latency %d, want clamped 0", got)
	}
	if got := f.col.WritePercentile(100); got != 0 {
		t.Fatalf("closed-loop recorded write latency %d, want clamped 0", got)
	}

	f2 := newBackwardsFTL(t)
	RunOpen(f2, []Stream{
		{Name: "r", Gen: seqGen(0, 4, false), Kind: ArrivalFixed, Rate: 1e9},
		{Name: "w", Gen: seqGen(0, 4, true), Kind: ArrivalFixed, Rate: 1e9},
	}, 0)
	if got := f2.col.ReadServicePercentile(100); got != 0 {
		t.Fatalf("open-loop recorded service latency %d, want clamped 0", got)
	}
	if f2.col.ReadPercentile(100) < 0 || f2.col.WritePercentile(100) < 0 {
		t.Fatal("open-loop recorded a negative total latency")
	}
}

// TestUnboundedStreamsExcludedFromWaitAccounting is the regression test
// for the open-loop wait bug: ArrivalUnbounded streams stamp every arrival
// at run start, so a mixed unbounded+rated run used to report a
// meaningless ~100% wait share for the unbounded tenant. Unbounded streams
// must contribute zero queue wait; rated streams keep theirs.
func TestUnboundedStreamsExcludedFromWaitAccounting(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 128, true)}, 0)
	f.Collector().Reset()
	streams := []Stream{
		// A long unbounded stream: device back-pressure is its only pacer.
		{Name: "batch", Gen: seqGen(0, 200, false), Kind: ArrivalUnbounded},
		// A deeply overloaded rated stream: real queue wait accumulates.
		{Name: "svc", Gen: seqGen(0, 100, false), Kind: ArrivalFixed, Rate: 1e7},
	}
	RunOpen(f, streams, 0)
	buckets := f.Collector().Streams()
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	batch, svc := buckets[0], buckets[1]
	if batch.Name != "batch" || svc.Name != "svc" {
		t.Fatalf("bucket order: %q, %q", batch.Name, svc.Name)
	}
	if w := batch.WaitShare(); w != 0 {
		t.Fatalf("unbounded tenant wait share = %.3f, want 0", w)
	}
	if mw := batch.MeanWait(); mw != 0 {
		t.Fatalf("unbounded tenant mean wait = %d, want 0", mw)
	}
	if batch.Mean() <= 0 {
		t.Fatal("unbounded tenant lost its service latency")
	}
	if w := svc.WaitShare(); w <= 0.5 {
		t.Fatalf("overloaded rated tenant wait share = %.3f, want > 0.5", w)
	}
}

// TestRateZeroStreamDegradesToUnboundedAccounting: a Rate that is not
// positive — 0, negative or NaN — degrades any arrival kind to unbounded,
// and the wait exclusion must follow the degraded kind, not the declared
// one. A NaN rate used to pass a Rate <= 0 test and record a mean queue
// wait of about -1.8e17 ns.
func TestRateZeroStreamDegradesToUnboundedAccounting(t *testing.T) {
	for _, rate := range []float64{0, -5, math.NaN()} {
		for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalFixed} {
			f, _ := ftl.NewIdeal(testConfig())
			Run(f, []Generator{seqGen(0, 64, true)}, 0)
			f.Collector().Reset()
			RunOpen(f, []Stream{
				{Name: "z", Gen: seqGen(0, 50, false), Kind: kind, Rate: rate},
			}, 0)
			col := f.Collector()
			if w, mw := col.QueueWaitShare(), col.MeanQueueWait(); w != 0 || mw != 0 {
				t.Fatalf("%v rate %g: wait share %.3f, mean wait %d, want 0", kind, rate, w, mw)
			}
			if col.HostReads != 50 {
				t.Fatalf("%v rate %g: %d reads, want 50", kind, rate, col.HostReads)
			}
		}
	}
}
