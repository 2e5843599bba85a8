// Package sim is the event-driven host layer of the simulator. Two host
// models share one event core (event.go):
//
//   - The closed-loop model (Run) reproduces FIO's psync engine, the way the
//     paper drives FEMU: each logical thread keeps exactly one request
//     outstanding, issuing the next one the moment the previous completes.
//     Offered load is whatever the device sustains — the saturation view.
//
//   - The open-loop model (RunOpen) reproduces what a rate-controlled
//     service sees: requests arrive on their own schedule (Poisson or fixed
//     interval, deterministic given a seed) whether or not the device is
//     ready, queue when it falls behind, and decompose their latency into
//     queue wait plus device service.
//
// In both models parallelism across sources emerges from per-chip
// scheduling inside the flash array, and all scheduling is deterministic.
package sim

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
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
	return runLoop(f, gens, maxRequests, true, nil)
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
	return runLoop(f, gens, maxRequests, true, ack)
}

// runLoop is the engine body shared by Run and Warmed. record=false skips
// the per-request latency records — invisible to a Warmed caller, whose
// collector is reset right after, but it keeps the warm-up hot path off
// the collector entirely.
//
// Every request is one min/advance pair on the scheduler: the source that
// just ran is re-keyed to its completion time in place, so a source that
// stays the earliest — always, for a single-generator warm-up — simply
// comes up again. The (time, index) order of processed events is pinned
// against the frozen linear reference in sched_test.go.
func runLoop(f ftl.FTL, gens []Generator, maxRequests int64, record bool, ack AckFunc) Result {
	start := f.Flash().MaxChipBusy()
	sc := newSchedAt(len(gens), start)
	col := f.Collector()
	tr := col.Tracer()
	if !record {
		// Warm-up phases are not attributed: spans belong to the measured
		// phase only, like the latency records themselves.
		tr = nil
	}
	var issued int64
	end := start
	for sc.len() > 0 {
		if maxRequests > 0 && issued >= maxRequests {
			break
		}
		th, now := sc.min()
		req, ok := gens[th].Next()
		if !ok {
			sc.retire() // thread exhausted
			continue
		}
		if tr != nil && !req.Trim {
			tr.BeginReq(req.Write, now, 0)
		}
		done, pages := issue(f, req, now)
		if record {
			switch {
			case req.Trim:
				// The FTL's TrimPages already counted the trim; a
				// metadata op joins no latency population.
			case req.Write:
				col.RecordWrite(done-now, pages)
			default:
				col.RecordRead(done-now, pages)
			}
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
		sc.advance(done)
	}
	return Result{Start: start, End: end, Requests: issued}
}

// Warmed runs a warm-up phase and then resets all metrics so a subsequent
// measured Run starts from a steady-state device, mirroring the paper's
// "write the SSD over ~6 times" warm-up (§IV-B). It returns the warm-up
// phase's own result (virtual span, requests issued) — the collector's
// view of it is gone after the reset.
func Warmed(f ftl.FTL, warm []Generator, maxRequests int64) Result {
	r := runLoop(f, warm, maxRequests, false, nil)
	f.Collector().Reset()
	f.Flash().ResetCounters()
	return r
}
