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
// Torn pages are programmed but never valid. Every read of one, through
// Read or ReadChecked alike, reads uncorrectable whether or not a fault
// model is attached, after walking an attached model's whole retry ladder.
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
