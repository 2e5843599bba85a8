package crash

import (
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// Oracle is the durability oracle: it records, per LPN, what a host that
// saw every acknowledgment could rightfully expect after a crash — mapped
// for an acked write, unmapped for an acked trim, last acknowledgment
// winning. It plugs into either engine as an ack sink (sim.AckFunc).
//
// The expectation is conservative on overwrites: an acked overwrite's LPN
// must still resolve to *a* page holding its key after recovery, but the
// simulator does not model page contents, so "which version" is not
// checked — version identity would require content hashes the model
// deliberately omits.
// An LPN with a request issued but not yet acknowledged when power died is
// indeterminate: a crashed in-flight write may or may not have reached
// flash, so the host can expect nothing for it — not even that an earlier
// acked trim keeps it unmapped. The oracle tracks those LPNs through an
// issue tap (Tap) and the verifier skips them.
type Oracle struct {
	expect   []acked // by LPN
	inflight []int32 // by LPN: issued-but-unacked request count
	writes   int64
}

// acked is what an LPN's last acknowledged request leaves the host
// expecting.
type acked uint8

const (
	ackedNone  acked = iota // nothing acknowledged: no expectation
	ackedWrite              // mapped
	ackedTrim               // unmapped
)

// NewOracle returns an empty oracle over lp logical pages.
func NewOracle(lp int64) *Oracle {
	return &Oracle{expect: make([]acked, lp), inflight: make([]int32, lp)}
}

// Issued records a request handed to the engine. Its LPNs stay
// indeterminate until the matching Ack.
func (o *Oracle) Issued(req sim.Request) {
	if !req.Write && !req.Trim {
		return
	}
	for k := 0; k < req.Pages; k++ {
		o.inflight[req.LPN+int64(k)]++
	}
}

// Ack implements sim.AckFunc: record one acknowledged request. The
// acknowledgment point is the engine's — after the FTL fully processed the
// request — so writes become expected-durable exactly when a host would
// consider them stable.
func (o *Oracle) Ack(req sim.Request, done nand.Time) {
	want := ackedWrite
	switch {
	case req.Trim:
		want = ackedTrim
	case req.Write:
		o.writes++
	default:
		return
	}
	for lpn := req.LPN; lpn < req.LPN+int64(req.Pages); lpn++ {
		o.expect[lpn] = want
		if o.inflight[lpn] > 0 {
			o.inflight[lpn]--
		}
	}
}

// Indeterminate reports whether lpn had a request in flight at the cut.
func (o *Oracle) Indeterminate(lpn int64) bool { return o.inflight[lpn] > 0 }

// AckedWrites returns the number of acknowledged write requests.
func (o *Oracle) AckedWrites() int64 { return o.writes }

// Tap wraps a generator so every fetched request registers with the
// oracle before the engine can issue it. The engine fetches a request the
// moment its source comes up and issues it right after, closed loop and
// open loop alike, so whatever is fetched and unacked when power dies is
// the one request being issued. Only idle-gap background work runs
// between the fetch and the issue: a cut there exempts a request that
// never started, which weakens the check for its LPNs but never produces a
// false verdict.
func (o *Oracle) Tap(gen sim.Generator) sim.Generator {
	return sim.GenFunc(func() (sim.Request, bool) {
		req, ok := gen.Next()
		if ok {
			o.Issued(req)
		}
		return req, ok
	})
}
