package ftl

import (
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// EmitRead schedules one data-page flash read of a resolved host read: the
// page at ppn starts lag ns after the request's issue time. lag models
// DRAM-side translation work that delays the flash op (LearnedFTL charges
// its PredictCost there); most schemes emit with lag 0.
type EmitRead func(ppn nand.PPN, lag nand.Time)

// ShardReader is the translation-decision hook of the parallel intra-run
// engine (internal/sim). TryReadPages attempts to serve an n-page host
// read at lpn entirely from DRAM-resident translation state — cached
// mappings, unwritten pages, exact learned-model predictions — emitting
// one data-page read per mapped page.
//
// The contract is all-or-nothing and two-phase:
//
//   - If ANY page would need a flash translation access (CMT miss, model
//     mispredict, uncached model), TryReadPages returns false having
//     mutated NOTHING — no counters, no recency, no emissions. The engine
//     then runs a translation barrier and replays the request through the
//     ordinary ReadPages, which is therefore byte-identical to a
//     sequential run.
//   - If every page resolves, TryReadPages performs exactly the
//     bookkeeping the sequential read path would (lookup/hit counters,
//     recency promotions, read-class records) in the same order, and
//     returns true. The emitted flash reads are the ONLY side effects left
//     for the engine to apply; their per-request order is the sequential
//     per-page order.
//
// Writes, trims and translation-page traffic never go through this
// interface — they are translation decisions and always barrier.
type ShardReader interface {
	TryReadPages(lpn int64, n int, emit EmitRead) bool
}

// TryReadPages implements ShardReader for the ideal FTL: with the whole
// mapping table resident in DRAM, every read resolves.
func (i *Ideal) TryReadPages(lpn int64, n int, emit EmitRead) bool {
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		i.Col.CMTLookups++
		i.Col.CMTHits++
		i.Col.RecordClass(stats.ReadSingle)
		if ppn := i.L2P.Get(l); ppn != nand.InvalidPPN {
			emit(ppn, 0)
		}
	}
	return true
}
