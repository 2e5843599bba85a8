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
	// Ignored for ArrivalUnbounded; a Rate <= 0 degrades any kind to
	// unbounded arrivals.
	Rate float64
	// Seed seeds the Poisson interarrival RNG.
	Seed int64
}

// olStream is the engine-side state of one open-loop stream.
type olStream struct {
	gen    Generator
	kind   ArrivalKind
	meanNS float64 // mean interarrival gap in virtual ns

	start   nand.Time
	clockNS float64   // arrival offset of the fetched request, ns since start
	arrival nand.Time // arrival time of the fetched request
	req     Request   // fetched but not yet issued request
	ready   nand.Time // completion time of the stream's previous request

	// Poisson: the stream's own RNG and the unit-mean gaps drawn from it a
	// batch at a time; the last gapLeft of gaps are still unused.
	rng     *rand.Rand
	gapLeft int
	gaps    [64]float64
}

// newOLStream builds the engine-side state of s for a run starting at
// start. A Rate <= 0 degrades any kind to unbounded arrivals.
func newOLStream(s Stream, start nand.Time) *olStream {
	st := &olStream{gen: s.Gen, kind: s.Kind, start: start, ready: start}
	if s.Rate <= 0 {
		st.kind = ArrivalUnbounded
	}
	switch st.kind {
	case ArrivalFixed:
		st.meanNS = float64(nand.Second) / s.Rate
	case ArrivalPoisson:
		st.meanNS = float64(nand.Second) / s.Rate
		st.rng = rand.New(rand.NewSource(s.Seed))
	}
	return st
}

// fetch pulls the stream's next request and stamps its arrival time.
// It returns false when the generator is exhausted.
func (s *olStream) fetch() bool {
	req, ok := s.gen.Next()
	if !ok {
		return false
	}
	s.req = req
	s.arrival = s.start + nand.Time(math.Round(s.clockNS))
	switch s.kind {
	case ArrivalFixed:
		s.clockNS += s.meanNS
	case ArrivalPoisson:
		if s.gapLeft == 0 {
			for i := range s.gaps {
				s.gaps[i] = s.rng.ExpFloat64()
			}
			s.gapLeft = len(s.gaps)
		}
		s.clockNS += s.gaps[len(s.gaps)-s.gapLeft] * s.meanNS
		s.gapLeft--
	}
	return true
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

// RunOpen replays rate-controlled open-loop streams against f until all
// streams are exhausted or maxRequests have been issued (0 = unlimited).
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
// RunOpen degenerates to the closed-loop Run over the same generators:
// identical issue order, identical flash schedule, identical service
// times.
func RunOpen(f ftl.FTL, streams []Stream, maxRequests int64) Result {
	return RunOpenWith(f, streams, OpenOptions{MaxRequests: maxRequests})
}

// RunOpenWith is RunOpen with explicit options (background GC).
func RunOpenWith(f ftl.FTL, streams []Stream, opt OpenOptions) Result {
	return RunOpenTarget(newFTLTarget(f), streams, opt)
}

// OpenTarget is what the open-loop host model drives: a single FTL device
// (the ftlTarget adapter) or a multi-device array (internal/fleet.Array).
// The engine owns arrivals, per-stream FIFO queueing and latency recording;
// the target owns request execution and idle-gap background work.
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

// ftlTarget adapts a single ftl.FTL to the OpenTarget shape. Its Issue is
// exactly the shared issue() path, so RunOpenWith over the adapter is
// byte-identical to the pre-refactor single-device loop. bg is f's
// background collector, nil when it has none, asserted once per run.
type ftlTarget struct {
	f  ftl.FTL
	bg ftl.BackgroundCollector
}

func newFTLTarget(f ftl.FTL) ftlTarget {
	bg, _ := f.(ftl.BackgroundCollector)
	return ftlTarget{f, bg}
}

func (t ftlTarget) Issue(req Request, now nand.Time) (nand.Time, int) {
	return issue(t.f, req, now)
}
func (t ftlTarget) Busy() nand.Time             { return t.f.Flash().MaxChipBusy() }
func (t ftlTarget) Collector() *stats.Collector { return t.f.Collector() }
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
	return runOpenLoop(t, streams, opt.MaxRequests, opt.BackgroundGC, opt.AckSink)
}

// runOpenLoop is the shared open-loop engine body (see RunOpen for the
// semantics). With bg set, the target's BackgroundWork is offered the idle
// gap before each service start that its drain time precedes.
func runOpenLoop(t OpenTarget, streams []Stream, maxRequests int64, bg bool, ack AckFunc) Result {
	start := t.Busy()
	col := t.Collector()
	names := make([]string, len(streams))
	for i, s := range streams {
		names[i] = s.Name
	}
	col.DefineStreams(names)

	states := make([]*olStream, len(streams))
	first := make([]nand.Time, len(streams)) // service start of each stream's first request
	for i, s := range streams {
		st := newOLStream(s, start)
		states[i] = st
		first[i] = never
		if st.fetch() {
			first[i] = max(st.arrival, st.ready)
		}
	}
	sc := newSched(first)

	tr := col.Tracer()
	var issued int64
	end := start
	for sc.len() > 0 {
		if maxRequests > 0 && issued >= maxRequests {
			break
		}
		i, now := sc.min()
		st := states[i]
		if bg {
			// The target drains before the next service start: offer the
			// idle gap to its background work source (GC, rebuild). Work it
			// launches finishes inside the gap or spills into the request's
			// service time through per-chip queueing — never onto its queue
			// wait.
			if busy := t.Busy(); busy < now {
				t.BackgroundWork(busy, now)
			}
		}
		wait := now - st.arrival
		if st.kind == ArrivalUnbounded {
			// Unbounded streams have no arrival schedule — every request
			// is nominally available at run start, so "wait" would only
			// measure run progress, and a mixed unbounded+rated run would
			// report a meaningless ~100% wait share for the unbounded
			// tenant. They are excluded from queue-wait accounting: their
			// latency is pure device service, as in the closed loop they
			// schedule identically to.
			wait = 0
		}
		if tr != nil && !st.req.Trim {
			tr.BeginReq(st.req.Write, now, wait)
		}
		done, pages := t.Issue(st.req, now)
		if st.req.Trim {
			// TrimPages counted the trim inside the FTL; metadata ops
			// join no latency population.
		} else {
			col.RecordQueued(i, st.req.Write, wait, done-now, pages)
			if tr != nil {
				tr.EndReq(done)
			}
		}
		if ack != nil {
			ack(st.req, done)
		}
		st.ready = done
		if done > end {
			end = done
		}
		issued++
		if st.fetch() {
			sc.advance(max(st.arrival, st.ready))
		} else {
			sc.retire()
		}
	}
	return Result{Start: start, End: end, Requests: issued}
}
