package sim

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// This file is the event core under the engine loop (run, engine.go): a
// tournament tree (sched.Tree) orders request sources by their next event
// time, and issue() executes one request against an FTL at a virtual
// timestamp.
// A source's next event is the later of its next arrival and its previous
// completion; a closed-loop thread's arrivals are unbounded, so its next
// event is simply its previous completion.

// issue executes one host request against f at virtual time now and returns
// the completion time plus the normalized page count. The completion is
// clamped to now *before* the caller records any latency, so a backwards
// completion time from an FTL can never surface as a negative latency (see
// TestIssueClampsBackwardsCompletion).
func issue(f ftl.FTL, req Request, now nand.Time) (done nand.Time, pages int) {
	pages = req.Pages
	switch {
	case req.Trim:
		// A non-positive page count must NOT normalize to 1 here: a
		// malformed zero-page trim would then silently discard one page's
		// live mapping. Trims cover exactly what they say or nothing.
		if pages <= 0 {
			return now, 0
		}
		done = f.TrimPages(req.LPN, pages, now)
	case req.Write:
		if pages <= 0 {
			pages = 1
		}
		done = f.WritePages(req.LPN, pages, now)
	default:
		if pages <= 0 {
			pages = 1
		}
		done = f.ReadPages(req.LPN, pages, now)
	}
	if done < now {
		done = now
	}
	return done, pages
}
