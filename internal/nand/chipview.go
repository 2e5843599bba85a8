package nand

// ChipView is a shard's window onto the flash array for the parallel
// intra-run engine (internal/sim): it executes host data-page reads with
// the same schedule arithmetic as Flash.Read but tallies them into
// view-local counters, so shard workers owning disjoint chip sets never
// write shared state. The engine routes every PPN to the shard owning its
// chip, which makes each per-chip busy-time slot single-writer; Absorb
// folds the local tallies back into the array's counters at every
// translation barrier. Counter addition commutes, so the totals are
// byte-identical to sequential execution at any worker count — the
// per-chip busy times are byte-identical because the engine preserves the
// sequential per-chip op order.
//
// Views exclude the reliability path: the fault-model read mutates
// order-dependent per-block state (read-disturb counters, the scrub
// queue), so the engine degrades to the sequential engine when a fault
// model is attached.
type ChipView struct {
	f        *Flash
	counters OpCounters
	maxBusy  Time // latest completion this view scheduled; Absorb folds it into the array's
	// ops buffers observed operations while an OpObserver is attached;
	// Absorb forwards them on the coordinator goroutine so the (single-
	// threaded) observer never runs on a shard worker. The engine's
	// barrier mutex handoff orders the buffered appends before Absorb.
	ops []FlashOp
}

// View returns a new shard view over the array. The caller owns routing:
// two views must never concurrently read pages on the same chip, and
// Absorb may only run while the view's shard is quiescent.
func (f *Flash) View() *ChipView {
	if f.fm != nil {
		panic("nand: chip views cannot be used with a fault model attached")
	}
	return &ChipView{f: f}
}

// Read executes one host data-page read: identical timing and accounting
// to Flash.Read without a fault model, with the op count kept view-local.
func (v *ChipView) Read(p PPN, after Time) Time {
	v.counters.Reads[OpHostData]++
	f := v.f
	chip := f.codec.Chip(p)
	start := after
	if f.chipBusy[chip] > start {
		start = f.chipBusy[chip]
	}
	done := start + f.timing.ReadLatency
	f.chipBusy[chip] = done
	v.maxBusy = max(v.maxBusy, done)
	if f.opObs != nil {
		v.ops = append(v.ops, FlashOp{Op: OpRead, Kind: OpHostData, PPN: p,
			Chip: int32(chip), After: after, Start: start, Done: done})
	}
	return done
}

// Absorb folds the view's local tallies into the array's counters and
// clears them. Only call from the coordinating goroutine while the view's
// shard is quiescent.
func (v *ChipView) Absorb() {
	v.f.counters.accumulate(v.counters)
	v.counters = OpCounters{}
	v.f.maxBusy = max(v.f.maxBusy, v.maxBusy)
	if len(v.ops) > 0 {
		if o := v.f.opObs; o != nil {
			for i := range v.ops {
				o.ObserveOp(v.ops[i])
			}
		}
		v.ops = v.ops[:0]
	}
}

// ReadLookahead returns the minimum service time of a data-page read: a
// read issued at t cannot complete before t + ReadLookahead regardless of
// chip contention. The parallel engine uses it as the conservative
// lookahead that lower-bounds a pending read's completion without touching
// any chip's busy time.
func (f *Flash) ReadLookahead() Time { return f.timing.ReadLatency }

// MinChipBusy returns the earliest time any chip frees up — the floor of
// all pending service across shards.
func (f *Flash) MinChipBusy() Time {
	if len(f.chipBusy) == 0 {
		return 0
	}
	m := f.chipBusy[0]
	for _, t := range f.chipBusy[1:] {
		if t < m {
			m = t
		}
	}
	return m
}
