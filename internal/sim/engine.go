// Package sim is the event-driven host layer of the simulator: one engine
// loop (run) drives request sources against a device, and each source
// brings its own arrival policy.
//
//   - A closed-loop thread (Run) is a source of unbounded arrivals. It
//     reproduces FIO's psync engine, the way the paper drives FEMU: each
//     thread keeps exactly one request outstanding, issuing the next one the
//     moment the previous completes. Offered load is whatever the device
//     sustains — the saturation view.
//
//   - An open-loop stream (RunOpenWith) is a rated source: its requests arrive
//     on their own schedule (Poisson or fixed interval, deterministic given
//     a seed) whether or not the device is ready, queue when it falls
//     behind, and decompose their latency into queue wait plus device
//     service.
//
// Parallelism across sources emerges from per-chip scheduling inside the
// flash array, and all scheduling is deterministic.
package sim

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sched"
)

// Request is one host I/O in pages. Trim takes precedence over Write: a
// trim request discards the covered mappings instead of transferring data.
type Request struct {
	Write bool
	Trim  bool
	LPN   int64
	Pages int
}

// Generator produces the request stream of one thread. Next returns false
// when the thread has no more work.
type Generator interface {
	Next() (Request, bool)
}

// GenFunc adapts a function to the Generator interface.
type GenFunc func() (Request, bool)

// Next implements Generator.
func (g GenFunc) Next() (Request, bool) { return g() }

// Result summarizes one engine run.
type Result struct {
	Start    nand.Time
	End      nand.Time
	Requests int64
}

// Makespan returns the virtual duration of the run.
func (r Result) Makespan() nand.Time { return r.End - r.Start }

// Run replays one generator per thread against f until all generators are
// exhausted or maxRequests have been issued (0 = unlimited). It records
// per-request latency into the FTL's collector and returns the run result.
//
// The engine is deterministic: among ready threads the lowest-indexed one
// issues first, and virtual time advances only through flash-op completion.
// Thread selection uses the shared scheduler keyed by (ready time, thread
// index), so a T-thread closed loop schedules each request in ⌈log₂ T⌉
// comparisons instead of the O(T) linear scan a naive implementation would
// need.
func Run(f ftl.FTL, gens []Generator, maxRequests int64) Result {
	return RunAcked(f, gens, maxRequests, nil)
}

// AckFunc receives every request the engine completed, with the completion
// time — the moment the request is acknowledged to the host. The crash
// harness records its durability oracle here: a request still in flight
// when a power cut unwinds the engine is never acked, so the oracle holds
// exactly what a host could rightfully expect after the crash.
type AckFunc func(req Request, done nand.Time)

// RunAcked is Run with an acknowledgment hook. Acks fire in issue order
// (the engine's deterministic execution order), after the FTL has fully
// processed the request.
func RunAcked(f ftl.FTL, gens []Generator, maxRequests int64, ack AckFunc) Result {
	return run(ftlTarget{f}, gens, nil, maxRequests, recordDevice, false, ack)
}

// Warmed runs a warm-up phase and then resets all metrics so a subsequent
// measured Run starts from a steady-state device, mirroring the paper's
// "write the SSD over ~6 times" warm-up (§IV-B). It returns the warm-up
// phase's own result (virtual span, requests issued) — the collector's
// view of it is gone after the reset.
func Warmed(f ftl.FTL, warm []Generator, maxRequests int64) Result {
	r := run(ftlTarget{f}, warm, nil, maxRequests, recordNone, false, nil)
	f.Collector().Reset()
	f.Flash().ResetCounters()
	return r
}

// record is what the engine records per request; each entry point fixes it.
type record int

const (
	recordNone   record = iota // Warmed: nothing, not even spans (warm-up is unattributed)
	recordDevice               // Run: device service time, into the host buckets
	recordQueued               // RunOpen*: queue wait plus service, per stream
)

// run is the engine. Source i draws its requests from gens[i] and, when
// clocks is set, its arrivals from clocks[i]. A closed loop passes no
// clocks: each thread is a stream of unbounded arrivals, whose clock would
// never move, so the loop skips the bookkeeping. Every source starts at the
// target's drain time and comes up at max(its next arrival, its previous
// completion): the loop then fetches its request, retires it if it is
// exhausted, offers the idle gap before it to background work (bg, open
// loop only), issues, records, acks and re-keys the source to its next
// event. Requests are fetched on come-up, never ahead, so a request is
// generated the moment it is issued.
//
// Every request is one min/advance pair on the scheduler: the source that
// just ran is re-keyed in place, so a source that stays the earliest —
// always, for a single-generator warm-up — simply comes up again. The
// (time, index) order of processed events is pinned against the frozen
// linear reference in sched_test.go.
func run(t OpenTarget, gens []Generator, clocks []clock, maxRequests int64, rec record, bg bool, ack AckFunc) Result {
	// A single device is issued to directly: through the adapter, every
	// request would pay one more indirect call.
	dev, _ := t.(ftlTarget)
	start := t.Busy()
	col := t.Collector()
	tr := col.Tracer()
	if rec == recordNone {
		tr = nil
	}
	sc := sched.New(len(gens), func(int) nand.Time { return start })
	var issued int64
	end := start
	for sc.Len() > 0 {
		if maxRequests > 0 && issued >= maxRequests {
			break
		}
		i, now := sc.Min()
		req, ok := gens[i].Next()
		if !ok {
			sc.Retire()
			continue
		}
		// An unbounded source's request arrives the moment it is issued, so
		// it never waits ("wait" would only measure run progress), and its
		// next one is due at once.
		wait, due := nand.Time(0), start
		if clocks != nil {
			if c := &clocks[i]; c.kind != ArrivalUnbounded {
				wait = now - c.stamp(start)
				due = c.due(start)
			}
			if bg {
				// The target drains before the service start: offer the
				// idle gap to its background work (GC, rebuild). Work it
				// launches finishes inside the gap or spills into the
				// request's service time through per-chip queueing — never
				// onto its queue wait.
				if busy := t.Busy(); busy < now {
					t.BackgroundWork(busy, now)
				}
			}
		}
		if tr != nil && !req.Trim {
			tr.BeginReq(req.Write, now, wait)
		}
		var done nand.Time
		var pages int
		if dev.f != nil {
			done, pages = issue(dev.f, req, now)
		} else {
			done, pages = t.Issue(req, now)
		}
		switch {
		case req.Trim:
			// The FTL's TrimPages already counted the trim; a metadata op
			// joins no latency population.
		case rec == recordDevice:
			if req.Write {
				col.RecordWrite(done-now, pages)
			} else {
				col.RecordRead(done-now, pages)
			}
		case rec == recordQueued:
			col.RecordQueued(i, req.Write, wait, done-now, pages)
		}
		if tr != nil && !req.Trim {
			tr.EndReq(done)
		}
		if ack != nil {
			ack(req, done)
		}
		if done > end {
			end = done
		}
		issued++
		sc.Advance(max(done, due))
	}
	return Result{Start: start, End: end, Requests: issued}
}
