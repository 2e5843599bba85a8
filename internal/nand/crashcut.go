package nand

import "fmt"

// PowerCut is the panic value raised when an armed power cut fires. The
// injection harness arms a cut with ArmCut, drives the workload, and
// recovers this value where a normal run would have returned: everything
// the FTL had in DRAM — maps, caches, allocator stacks — is unwound with
// the goroutine, exactly as a real power loss forgets DRAM. Only the flash
// arrays survive (plus the torn roster, which is physical page state).
type PowerCut struct {
	// Op is the 1-based ordinal of the flash operation the cut fired on,
	// counted from when the plan was armed.
	Op int64
	// Type is what the fatal operation was (read, program, erase).
	Type OpType
	// PPN is the page the fatal operation addressed (the block's first page
	// for an erase).
	PPN PPN
	// Torn reports that the fatal operation was a program left
	// half-finished: its page is burned but unreadable (see Flash.IsTorn).
	Torn bool
	// Time is the virtual time power died: the fatal operation's issue time
	// for reads, erases and torn programs, its completion time for a
	// completed program (power lasted exactly long enough to finish it).
	Time Time
}

// Error implements error so a recovered PowerCut prints usefully if it
// escapes a harness that forgot to handle it.
func (c PowerCut) Error() string {
	return fmt.Sprintf("nand: power cut at op %d (%v of page %d, torn=%v, t=%d)",
		c.Op, c.Type, c.PPN, c.Torn, c.Time)
}

// cutPlan is the armed power-cut trigger. The ordinal counter pre-increments
// on every flash operation issued while armed, so "cut at the k-th op" is
// exact and deterministic for a deterministic workload.
type cutPlan struct {
	atOp   int64 // fire on the atOp-th operation since arming (0 = disabled)
	atTime Time  // fire on the first operation issued at or after atTime (0 = disabled)
	torn   bool  // tear the fatal program instead of completing it
	seen   int64 // operations observed since arming
}

// due advances the ordinal and reports whether the cut fires on an
// operation issued at time `after`.
func (c *cutPlan) due(after Time) bool {
	c.seen++
	if c.atOp > 0 && c.seen >= c.atOp {
		return true
	}
	return c.atTime > 0 && after >= c.atTime
}

// ArmCut arms a power cut: the simulation panics with a PowerCut on the
// atOp-th flash operation issued from now (1-based), or on the first
// operation issued at or after virtual time atTime, whichever comes first;
// a zero value disables that trigger. Reads and erases die before
// executing (power was gone when the command arrived). A program either
// completes fully and then cuts power — modeling a cut in the window
// between the device finishing the program and the FTL updating its DRAM
// state, which is how both-copies-visible crash images arise — or, with
// torn set, is left half-programmed: the page is consumed by the write
// pointer but never valid, and its OOB reads uncorrectable (a torn page).
//
// Arming costs one small allocation; the disarmed hot paths pay only a
// nil-check.
func (f *Flash) ArmCut(atOp int64, atTime Time, torn bool) {
	f.cut = &cutPlan{atOp: atOp, atTime: atTime, torn: torn}
}

// DisarmCut removes an armed cut without firing it.
func (f *Flash) DisarmCut() { f.cut = nil }

// CutArmed reports whether a power cut is armed.
func (f *Flash) CutArmed() bool { return f.cut != nil }

// cutNow builds the panic value for a cut firing on the current operation.
func (f *Flash) cutNow(t OpType, p PPN, torn bool, at Time) PowerCut {
	return PowerCut{Op: f.cut.seen, Type: t, PPN: p, Torn: torn, Time: at}
}

// markTorn records p as torn. The roster is tiny (at most one page per
// injected crash), so membership tests are linear scans guarded by a length
// check.
func (f *Flash) markTorn(p PPN) { f.torn = append(f.torn, p) }

// IsTorn reports whether page p was left half-programmed by a power cut.
// Torn pages are programmed but never valid; their OOB reads uncorrectable
// regardless of the fault model (ReadChecked).
func (f *Flash) IsTorn(p PPN) bool {
	for _, t := range f.torn {
		if t == p {
			return true
		}
	}
	return false
}

// clearTornBlock drops roster entries belonging to blockID (its erase
// recharged the cells; the tear is gone with the contents).
func (f *Flash) clearTornBlock(blockID int) {
	keep := f.torn[:0]
	for _, p := range f.torn {
		if f.codec.BlockID(p) != blockID {
			keep = append(keep, p)
		}
	}
	f.torn = keep
}

// PowerCycle models the power interruption and restart after a cut fired:
// every chip's schedule resets to t — whatever was in flight died with the
// power — and any armed cut disarms. The torn roster survives: tearing is
// physical page state the next mount scan must observe. Callers pass the
// recovered PowerCut's Time so the subsequent mount scan starts on the
// crashed clock.
func (f *Flash) PowerCycle(t Time) {
	f.setClocks(t)
	f.cut = nil
}

// ReadChecked is Read returning the fault model's verdict alongside the
// completion time. The mount scan uses it: an OOB read that exhausts the
// ECC retry ladder must surface as uncorrectable instead of silently
// yielding its mapping. A torn page — a program in flight when power died —
// reads uncorrectable regardless of the model: its cells hold a partial
// program no reference-voltage shift recovers. Without a fault model, clean
// pages read clean (ideal NAND) and only torn pages fail.
func (f *Flash) ReadChecked(p PPN, after Time, kind OpKind) (Time, ReadOutcome) {
	if f.cut != nil && f.cut.due(after) {
		panic(f.cutNow(OpRead, p, false, after))
	}
	if len(f.torn) > 0 && f.IsTorn(p) {
		return f.tornRead(p, after, kind)
	}
	if f.fm != nil {
		return f.faultReadOut(p, after, kind)
	}
	return f.plainRead(p, after, kind), ReadOutcome{}
}

// RetryLadder is optionally implemented by fault models that expose the
// depth of their read-retry ladder; a torn page's read walks the whole
// ladder before giving up, so its latency charge includes every step.
type RetryLadder interface {
	RetrySteps() int
}

// tornRead reads a torn page: ECC walks the full retry ladder (when the
// attached model has one) and never converges.
func (f *Flash) tornRead(p PPN, after Time, kind OpKind) (Time, ReadOutcome) {
	out := ReadOutcome{Uncorrectable: true}
	d := f.timing.ReadLatency
	var retry Time
	if f.fm != nil {
		if lm, ok := f.fm.(RetryLadder); ok && lm.RetrySteps() > 0 {
			out.Retries = lm.RetrySteps()
			retry = Time(out.Retries) * f.timing.RetryLatency
			d += retry
			f.rel.Retries += int64(out.Retries)
			f.rel.RetryTime += retry
		}
		f.blocks[f.codec.BlockID(p)].reads++
		f.rel.Uncorrectable++
		if kind == OpHostData {
			f.rel.HostUncorrectable++
		}
	}
	f.counters.Reads[kind]++
	chip := f.codec.Chip(p)
	done := f.schedule(chip, after, d)
	if f.opObs != nil {
		f.opObs.ObserveOp(FlashOp{Op: OpRead, Kind: kind, PPN: p, Chip: int32(chip),
			After: after, Start: done - d, Done: done, Retry: retry})
	}
	return done, out
}
