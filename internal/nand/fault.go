package nand

import "errors"

// ErrProgramFailed reports a grown defect: the program operation ran to
// completion on the die but the page failed verification. The page is
// consumed (the in-order write pointer advanced past it) and the block has
// been marked bad; the FTL must retire the block and retry the write on a
// different one. This is the only Program error that models a device fault
// rather than a simulator-usage bug.
var ErrProgramFailed = errors.New("nand: page program failed (grown defect)")

// ReadOutcome is the fault model's verdict on one page read.
type ReadOutcome struct {
	// Retries is how many read-retry steps ECC needed before the codeword
	// converged (0 = clean first sense). Each step costs Timing.RetryLatency
	// of extra chip occupancy.
	Retries int
	// Uncorrectable means the codeword never converged: the retry ladder is
	// exhausted and the sector is lost (a UBER event).
	Uncorrectable bool
	// Scrub flags the page's block as at-risk: correctable today, but close
	// enough to the ECC limit that it should be rewritten before it is not.
	Scrub bool
}

// FaultModel decides reliability outcomes for flash operations. The flash
// array consults it (when attached) with the per-page state it tracks —
// block erase count (wear), block read count since erase (read disturb) and
// retention age — and applies the verdicts: retry latency on reads, grown
// bad blocks on program/erase failures. Implementations must be
// deterministic functions of their arguments and must not allocate; they
// run on the per-page hot paths.
type FaultModel interface {
	// ReadFault judges a read of page p given its block's read count
	// (including this read), erase count, and the time since the block was
	// last programmed.
	ReadFault(p PPN, blockReads, blockErases int64, age Time) ReadOutcome
	// ProgramFault reports whether a program of page p fails, growing a bad
	// block.
	ProgramFault(p PPN, blockErases int64) bool
	// EraseFault reports whether an erase of blockID fails, growing a bad
	// block.
	EraseFault(blockID int, blockErases int64) bool
	// RetrySteps is the depth of the read-retry ladder; a torn page's read
	// walks all of it before going uncorrectable.
	RetrySteps() int
}

// RelCounters tallies reliability events. Unlike OpCounters they are not
// folded into a lifetime total on reset: experiments want the measured
// window's events only, and UBER is computed against the same window's read
// count.
type RelCounters struct {
	// Retries is the total number of read-retry steps performed.
	Retries int64
	// RetryTime is the virtual time those steps added to chip occupancy.
	RetryTime Time
	// Uncorrectable counts reads whose codeword never converged (data loss).
	Uncorrectable int64
	// HostUncorrectable is the subset of Uncorrectable on host data reads —
	// the loss the host actually observes, and the numerator of UBER.
	// Relocation and translation reads of a decayed page fail too, but they
	// surface later (or never), not as an error on this host request.
	HostUncorrectable int64
	// ProgramFails counts grown-defect program failures.
	ProgramFails int64
	// EraseFails counts erase failures.
	EraseFails int64
}
