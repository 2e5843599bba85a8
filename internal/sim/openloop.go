package sim

import (
	"math"
	"math/rand"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// ArrivalKind selects the arrival process of one open-loop stream.
type ArrivalKind int

const (
	// ArrivalUnbounded makes every request of the stream available at run
	// start, so only device back-pressure paces it. A stream of unbounded
	// arrivals schedules identically to one closed-loop thread driving the
	// same generator (see TestOpenUnboundedMatchesClosedLoop).
	ArrivalUnbounded ArrivalKind = iota
	// ArrivalFixed spaces arrivals by exactly 1/Rate seconds of virtual
	// time — a deterministic pacer.
	ArrivalFixed
	// ArrivalPoisson draws exponential interarrival gaps with mean 1/Rate
	// from the stream's seeded RNG — a memoryless open-loop source. Given
	// the same seed the arrival schedule is bit-for-bit reproducible.
	ArrivalPoisson
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalUnbounded:
		return "unbounded"
	case ArrivalFixed:
		return "fixed"
	case ArrivalPoisson:
		return "poisson"
	default:
		return "unknown"
	}
}

// ParseArrival maps a flag value to an ArrivalKind.
func ParseArrival(s string) (ArrivalKind, bool) {
	switch s {
	case "unbounded":
		return ArrivalUnbounded, true
	case "fixed":
		return ArrivalFixed, true
	case "poisson", "":
		return ArrivalPoisson, true
	default:
		return ArrivalPoisson, false
	}
}

// Stream is one open-loop request source: a tenant's request content
// (Gen) paired with an arrival process that paces it. Several streams may
// share one Name; the collector then accounts them as a single tenant.
type Stream struct {
	// Name tags the stream's requests in the collector's per-stream
	// latency tracking. Streams with equal names share one bucket.
	Name string
	// Gen supplies the request contents in order. Requests are serviced
	// FIFO within a stream, at most one outstanding (psync semantics), so
	// arrivals outrunning the device accumulate queue wait.
	Gen Generator
	// Kind selects the arrival process.
	Kind ArrivalKind
	// Rate is the offered arrival rate in requests per virtual second.
	// Ignored for ArrivalUnbounded; a Rate that is not positive (NaN
	// included) degrades any kind to unbounded arrivals.
	Rate float64
	// Seed seeds the Poisson interarrival RNG.
	Seed int64
}

// clock is the arrival process of one open-loop stream: when each of its
// requests arrives, independent of what the request is.
type clock struct {
	kind   ArrivalKind
	meanNS float64   // mean interarrival gap in virtual ns
	nextNS float64   // arrival offset of the next request, ns since start
	next   nand.Time // nextNS rounded

	// Poisson: the stream's own RNG and the unit-mean gaps drawn from it a
	// batch at a time; the last gapLeft of gaps are still unused.
	rng     *rand.Rand
	gapLeft int
	gaps    [64]float64
}

// newClock builds the arrival process of s. A Rate that is not positive
// (NaN included) degrades any kind to unbounded arrivals.
func newClock(s Stream) clock {
	c := clock{kind: s.Kind}
	if !(s.Rate > 0) {
		c.kind = ArrivalUnbounded
	}
	switch c.kind {
	case ArrivalFixed:
		c.meanNS = float64(nand.Second) / s.Rate
	case ArrivalPoisson:
		c.meanNS = float64(nand.Second) / s.Rate
		c.rng = rand.New(rand.NewSource(s.Seed))
	}
	return c
}

// due returns the arrival time of the stream's next request in a run
// starting at start.
func (c *clock) due(start nand.Time) nand.Time { return start + c.next }

// stamp returns the arrival time of the request just fetched and moves on
// by one interarrival gap: the next request's arrival is due without
// fetching it.
func (c *clock) stamp(start nand.Time) nand.Time {
	at := c.due(start)
	switch c.kind {
	case ArrivalFixed:
		c.nextNS += c.meanNS
	case ArrivalPoisson:
		if c.gapLeft == 0 {
			for i := range c.gaps {
				c.gaps[i] = c.rng.ExpFloat64()
			}
			c.gapLeft = len(c.gaps)
		}
		c.nextNS += c.gaps[len(c.gaps)-c.gapLeft] * c.meanNS
		c.gapLeft--
	}
	c.next = nand.Time(math.Round(c.nextNS))
	return at
}

// OpenOptions tune an open-loop run beyond the stream definitions.
type OpenOptions struct {
	// MaxRequests caps the issued requests (0 = unlimited).
	MaxRequests int64
	// BackgroundGC runs garbage collection during device-idle gaps when
	// the FTL implements ftl.BackgroundCollector: whenever the next host
	// arrival is later than the device's drain time, the gap is offered to
	// the collector, which launches collections until the arrival is due
	// or the collector's own stop rule holds (block-granular FTLs: free
	// pool at the background watermark; LearnedFTL: no group with a full
	// superblock row reclaimable). A collection the arrival catches
	// mid-flight delays that request through ordinary per-chip queueing —
	// preemption by arrival, not mid-erase abort.
	BackgroundGC bool
	// AckSink, when set, receives every completed request with its
	// completion time — the host-visible acknowledgment. The crash harness
	// records its durability oracle here; a request in flight when a power
	// cut unwinds the engine is never acked.
	AckSink AckFunc
}

// RunOpenWith replays rate-controlled open-loop streams against f until
// all streams are exhausted or opt.MaxRequests have been issued (0 =
// unlimited).
//
// Each stream's requests arrive on the schedule of its arrival process and
// are serviced in order, one outstanding at a time: request j begins
// service at max(arrival_j, completion_{j-1}), so a device that falls
// behind the offered rate accumulates queue wait. Per request the engine
// records total latency (completion − arrival) decomposed into queue wait
// (service start − arrival) and device service (completion − service
// start) into the FTL's collector, tagged with the stream for per-tenant
// percentiles.
//
// Scheduling is deterministic: the shared scheduler issues the stream
// with the earliest service-start time first, lowest stream index winning
// ties, and all arrival processes are seeded. With every stream unbounded
// RunOpenWith schedules exactly as Run over the same generators.
func RunOpenWith(f ftl.FTL, streams []Stream, opt OpenOptions) Result {
	return RunOpenTarget(newFTLTarget(f), streams, opt)
}

// OpenTarget is what the engine drives: a single FTL device (the ftlTarget
// adapter) or a multi-device array (internal/fleet.Array). The engine owns
// arrivals, per-source FIFO queueing and latency recording; the target owns
// request execution and idle-gap background work.
type OpenTarget interface {
	// Issue executes one host request at virtual time now and returns the
	// completion time plus the normalized page count. Implementations must
	// never return a completion before now (see issue()).
	Issue(req Request, now nand.Time) (done nand.Time, pages int)
	// Busy returns the target's drain time: the latest scheduled completion
	// across every chip of every device.
	Busy() nand.Time
	// Collector is the host-level metrics sink the engine records arrivals,
	// waits and latencies into.
	Collector() *stats.Collector
	// BackgroundWork is offered the device-idle gap [start, deadline):
	// work launched inside it (GC, scrub, rebuild traffic) competes with
	// foreground requests through ordinary per-chip queueing.
	BackgroundWork(start, deadline nand.Time)
}

// ftlTarget adapts a single ftl.FTL to the OpenTarget shape: Run, Warmed
// and RunOpenWith all drive a device through it. Its Issue is exactly the
// shared issue() path. bg is f's background collector, nil when it has
// none, asserted once per run.
type ftlTarget struct {
	f  ftl.FTL
	bg ftl.BackgroundCollector
}

func newFTLTarget(f ftl.FTL) ftlTarget {
	bg, _ := f.(ftl.BackgroundCollector)
	return ftlTarget{f, bg}
}

func (t ftlTarget) Issue(req Request, now nand.Time) (nand.Time, int) { return issue(t.f, req, now) }
func (t ftlTarget) Busy() nand.Time                                   { return t.f.Flash().MaxChipBusy() }
func (t ftlTarget) Collector() *stats.Collector                       { return t.f.Collector() }
func (t ftlTarget) BackgroundWork(s, d nand.Time) {
	if t.bg != nil {
		t.bg.BackgroundGC(s, d)
	}
}

// RunOpenTarget drives any OpenTarget — in this repo, internal/fleet's
// multi-device Array — with the same open-loop host model as RunOpenWith:
// identical arrival processes, queueing semantics, deterministic
// (time, stream index) scheduling and latency recording. With
// OpenOptions.BackgroundGC set, the target's BackgroundWork is offered
// every device-idle gap.
func RunOpenTarget(t OpenTarget, streams []Stream, opt OpenOptions) Result {
	names := make([]string, len(streams))
	gens := make([]Generator, len(streams))
	clocks := make([]clock, len(streams))
	for i, s := range streams {
		names[i], gens[i], clocks[i] = s.Name, s.Gen, newClock(s)
	}
	t.Collector().DefineStreams(names)
	return run(t, gens, clocks, opt.MaxRequests, recordQueued, opt.BackgroundGC, opt.AckSink)
}
