// Package obs is the simulator's observability layer: per-request latency
// attribution (spans decomposed into phases) and a bounded virtual-time
// trace exporter (Chrome trace-event JSON, trace.go).
//
// The layer follows the internal/fault precedent: everything is opt-in via
// an attached *Tracer, and with no tracer attached every hook in the
// engines, the FTLs and the flash array is a nil check — golden tables stay
// byte-identical and the hot paths allocation-free. Memory is O(1) in run
// length: per-phase sums, a bounded top-K tail set, which also gives the
// exact P99.9, and a ring buffer for trace events. Latency percentiles of
// the whole population are internal/stats's; the tail set stays here
// because each of its spans carries the per-phase decomposition.
package obs

import (
	"cmp"
	"slices"

	"learnedftl/internal/nand"
)

// Phase is one component of a request's latency decomposition. The phases
// other than PhaseData are attributed explicitly by hooks along the request
// chain; PhaseData is the residual (total minus everything attributed), so
// a span's phases always sum to its total latency.
type Phase uint8

const (
	// PhaseQueue is open-loop queue wait: service start minus arrival.
	PhaseQueue Phase = iota
	// PhaseLookup is DRAM-side translation compute before a flash read can
	// issue (LearnedFTL's model prediction cost).
	PhaseLookup
	// PhaseTrans is translation-page flash time on the request chain:
	// demand translation reads and CMT eviction write-backs.
	PhaseTrans
	// PhaseGCStall is foreground garbage collection the request waited out
	// (watermark-triggered collections, group GC, translation-pool GC).
	PhaseGCStall
	// PhaseRetry is ECC read-retry ladder time charged by the fault model.
	PhaseRetry
	// PhaseScrubWait is chip-busy wait behind background scrub relocation.
	PhaseScrubWait
	// PhaseData is the residual: flash data time plus anything unattributed.
	PhaseData
	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{"queue", "lookup", "trans", "gc", "retry", "scrub", "data"}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// SpanRecord is one completed request's latency decomposition.
type SpanRecord struct {
	Write  bool
	Total  nand.Time
	Phases [NumPhases]nand.Time
}

// topKCap bounds the exact tail set: the top-K spans by total latency are
// retained, so P99.9 and its tail decomposition are exact for runs up to
// 1000×topKCap requests and degrade to "top topKCap requests" beyond.
const topKCap = 4096

// Breakdown is the frozen aggregate view of a tracer: per-phase latency
// sums over all spans, the P99.9, and the exact decomposition of the P99.9
// tail set.
type Breakdown struct {
	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`
	// TotalSum is the summed total latency; PhaseSum its decomposition.
	// The phases of every span sum exactly to its total (PhaseData is the
	// residual), so Sum(PhaseSum) == TotalSum.
	TotalSum nand.Time            `json:"total_sum"`
	PhaseSum [NumPhases]nand.Time `json:"phase_sum"`
	// P999 is the 99.9th percentile of total latency under the collector's
	// rule (internal/stats): exact while its rank from the top is within the
	// top-K set, else the smallest total the set holds, an upper bound.
	P999 nand.Time `json:"p999"`
	// Tail* decompose the top ceil(0.1%) of requests by total latency —
	// the P99.9-by-cause view. Exact while the tail fits the top-K set.
	TailCount int64                `json:"tail_count"`
	TailSum   nand.Time            `json:"tail_sum"`
	TailPhase [NumPhases]nand.Time `json:"tail_phase"`
}

// Mean returns the mean total latency.
func (b Breakdown) Mean() nand.Time {
	if b.Requests == 0 {
		return 0
	}
	return b.TotalSum / nand.Time(b.Requests)
}

// PhaseMean returns the mean per-request time spent in phase p.
func (b Breakdown) PhaseMean(p Phase) nand.Time {
	if b.Requests == 0 {
		return 0
	}
	return b.PhaseSum[p] / nand.Time(b.Requests)
}

// TailMean returns the mean latency of the P99.9 tail set.
func (b Breakdown) TailMean() nand.Time {
	if b.TailCount == 0 {
		return 0
	}
	return b.TailSum / nand.Time(b.TailCount)
}

// TailShare returns phase p's fraction of the tail set's total latency.
func (b Breakdown) TailShare(p Phase) float64 {
	if b.TailSum == 0 {
		return 0
	}
	return float64(b.TailPhase[p]) / float64(b.TailSum)
}

// TailCause returns the dominant explicitly-attributed phase of the tail
// set and its share — the one-line answer to "what makes the P99.9 slow".
// PhaseData wins only when nothing else was attributed.
func (b Breakdown) TailCause() (Phase, float64) {
	best, bestShare := PhaseData, b.TailShare(PhaseData)
	for p := PhaseQueue; p < PhaseData; p++ {
		if s := b.TailShare(p); s > bestShare {
			best, bestShare = p, s
		}
	}
	return best, bestShare
}

// Tracer accumulates request spans. It is single-threaded by design, like
// the simulation engines that drive it: at most one span is open at a time
// (the engines issue requests strictly sequentially), so the tracer never
// sees concurrency.
//
// A Tracer also implements nand.OpObserver: attached to the flash array it
// receives every flash operation, which feeds the trace exporter and the
// translation/retry/scrub-wait attribution.
type Tracer struct {
	active bool
	cur    SpanRecord
	start  nand.Time

	// Foreground-GC window state: depth-counted so nested collections
	// (pool GC inside a collection's finalize) attribute once.
	gcDepth int
	gcScrub bool
	gcStart nand.Time

	reads, writes int64
	totalSum      nand.Time
	phaseSum      [NumPhases]nand.Time

	// topK is a min-heap on Total of the largest spans seen.
	topK []SpanRecord

	// chipScrub marks chips whose most recent flash op was scrub-window
	// relocation, for scrub-interference attribution. Grown lazily.
	chipScrub []bool

	trace *Trace
}

// NewTracer returns an aggregation-only tracer; call EnableTrace to add the
// trace exporter.
func NewTracer() *Tracer {
	return &Tracer{topK: make([]SpanRecord, 0, topKCap)}
}

// EnableTrace attaches a ring-buffered trace exporter holding up to
// capEvents events (older events are overwritten).
func (t *Tracer) EnableTrace(capEvents int) { t.trace = NewTrace(capEvents) }

// Trace returns the attached trace exporter (nil when disabled).
func (t *Tracer) Trace() *Trace { return t.trace }

// BeginReq opens the span of one host request at service-start time now
// with queue wait (0 for closed-loop runs).
func (t *Tracer) BeginReq(write bool, now, wait nand.Time) {
	t.active = true
	t.start = now
	t.cur = SpanRecord{Write: write}
	if wait > 0 {
		t.cur.Phases[PhaseQueue] = wait
	}
}

// AddPhase attributes d to phase p of the open span (no-op without one).
func (t *Tracer) AddPhase(p Phase, d nand.Time) {
	if t.active && d > 0 {
		t.cur.Phases[p] += d
	}
}

// EndReq closes the open span at completion time done: the total is the
// queue wait plus service time, and PhaseData absorbs the residual.
func (t *Tracer) EndReq(done nand.Time) {
	if !t.active {
		return
	}
	t.active = false
	t.finish(t.cur, done-t.start+t.cur.Phases[PhaseQueue])
}

// finish folds one completed span into the aggregates.
func (t *Tracer) finish(s SpanRecord, total nand.Time) {
	if total < 0 {
		total = 0
	}
	var attributed nand.Time
	for p := PhaseQueue; p < PhaseData; p++ {
		attributed += s.Phases[p]
	}
	if attributed > total {
		// Attributed op time can overlap in wall-clock time (one request
		// fanning translation write-backs across chips, each charged its
		// full Done-After). Normalize proportionally so the span's phases
		// still sum exactly to its total — the breakdown stays a share of
		// request latency, not of serialized device time.
		scale := float64(total) / float64(attributed)
		attributed = 0
		for p := PhaseQueue; p < PhaseData; p++ {
			s.Phases[p] = nand.Time(float64(s.Phases[p]) * scale)
			attributed += s.Phases[p]
		}
	}
	if d := total - attributed; d > 0 {
		s.Phases[PhaseData] = d
	}
	s.Total = total
	if s.Write {
		t.writes++
	} else {
		t.reads++
	}
	t.totalSum += total
	for p := Phase(0); p < NumPhases; p++ {
		t.phaseSum[p] += s.Phases[p]
	}
	t.pushTop(s)
}

// pushTop keeps the top-K spans by total latency in a min-heap.
func (t *Tracer) pushTop(s SpanRecord) {
	if len(t.topK) < topKCap {
		t.topK = append(t.topK, s)
		i := len(t.topK) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if t.topK[parent].Total <= t.topK[i].Total {
				break
			}
			t.topK[parent], t.topK[i] = t.topK[i], t.topK[parent]
			i = parent
		}
		return
	}
	if s.Total <= t.topK[0].Total {
		return
	}
	t.topK[0] = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.topK) && t.topK[l].Total < t.topK[min].Total {
			min = l
		}
		if r < len(t.topK) && t.topK[r].Total < t.topK[min].Total {
			min = r
		}
		if min == i {
			break
		}
		t.topK[i], t.topK[min] = t.topK[min], t.topK[i]
		i = min
	}
}

// EnterGC opens a foreground-GC (or scrub) window at now. Windows nest;
// only the outermost attributes and traces.
func (t *Tracer) EnterGC(scrub bool, now nand.Time) {
	t.gcDepth++
	if t.gcDepth == 1 {
		t.gcScrub = scrub
		t.gcStart = now
	}
}

// ExitGC closes the innermost GC window at done. Closing the outermost
// window attributes its span to PhaseGCStall of the open request span (if
// any; scrub windows attribute nothing — they run in idle gaps) and emits
// a GC/scrub track event.
func (t *Tracer) ExitGC(done nand.Time) {
	if t.gcDepth == 0 {
		return
	}
	t.gcDepth--
	if t.gcDepth > 0 {
		return
	}
	d := done - t.gcStart
	if d <= 0 {
		return
	}
	if t.active && !t.gcScrub {
		t.cur.Phases[PhaseGCStall] += d
	}
	if t.trace != nil {
		if t.gcScrub {
			t.trace.add(t.gcStart, d, trackScrub, evScrub)
		} else {
			t.trace.add(t.gcStart, d, trackGC, evGC)
		}
	}
}

// ObserveOp implements nand.OpObserver: every flash operation feeds the
// chip tracks of the trace and the per-span translation / retry /
// scrub-wait attribution.
func (t *Tracer) ObserveOp(op nand.FlashOp) {
	inGC := t.gcDepth > 0
	if t.trace != nil {
		t.trace.add(op.Start, op.Done-op.Start, op.Chip, opEventKind(op.Op, op.Kind))
	}
	if t.active && !inGC {
		hostFacing := op.Kind == nand.OpHostData || op.Kind == nand.OpTranslation
		if op.Retry > 0 && hostFacing {
			t.cur.Phases[PhaseRetry] += op.Retry
		}
		if op.Kind == nand.OpTranslation {
			if d := op.Done - op.After - op.Retry; d > 0 {
				t.cur.Phases[PhaseTrans] += d
			}
		}
		if hostFacing && int(op.Chip) < len(t.chipScrub) && t.chipScrub[op.Chip] {
			if wait := op.Start - op.After; wait > 0 {
				t.cur.Phases[PhaseScrubWait] += wait
			}
		}
	}
	// Track which chips a scrub relocation touched last, so the next host
	// op's chip-busy wait behind it is attributable as scrub interference.
	// The slice grows only on first sight of a chip, not per op.
	scrub := inGC && t.gcScrub
	if scrub || int(op.Chip) < len(t.chipScrub) {
		if int(op.Chip) >= len(t.chipScrub) {
			grown := make([]bool, op.Chip+1)
			copy(grown, t.chipScrub)
			t.chipScrub = grown
		}
		t.chipScrub[op.Chip] = scrub
	}
}

// Breakdown freezes the aggregates, deriving P99.9 and its tail
// decomposition from the top-K set.
func (t *Tracer) Breakdown() Breakdown {
	b := Breakdown{
		Requests: t.reads + t.writes,
		Reads:    t.reads,
		Writes:   t.writes,
		TotalSum: t.totalSum,
		PhaseSum: t.phaseSum,
	}
	if b.Requests == 0 {
		return b
	}
	// Largest spans first from the heap slice: sort a copy descending,
	// stably, so spans tied on Total are picked in heap order.
	tail := slices.Clone(t.topK)
	slices.SortStableFunc(tail, func(a, b SpanRecord) int { return cmp.Compare(b.Total, a.Total) })
	idx := min(max(int64(99.9/100*float64(b.Requests))-1, 0), b.Requests-1)
	b.P999 = tail[min(b.Requests-idx, int64(len(tail)))-1].Total
	want := min(max(b.Requests/1000, 1), int64(len(tail)))
	for _, s := range tail[:want] {
		b.TailCount++
		b.TailSum += s.Total
		for p := Phase(0); p < NumPhases; p++ {
			b.TailPhase[p] += s.Phases[p]
		}
	}
	return b
}
