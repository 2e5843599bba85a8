package sim

import (
	"sync"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// This file is the parallel intra-run engine: a conservative
// (Chandy-Misra-style lookahead) sharding of the closed-loop event core
// across the flash array's chips, pinned byte-identical to the sequential
// engine at every worker count.
//
// The design follows from one observation about the FTL layer: every
// translation DECISION is globally ordered — a host write allocates from
// the least-busy chip (a scan of all chips' busy times), a CMT miss
// mutates LRU recency and may evict, GC moves pages anywhere — but a read
// whose translation resolves in DRAM (CMT hit, unwritten page, exact
// learned-model prediction) touches only its own chip's schedule. So the
// coordinator runs all FTL logic sequentially, in exactly the sequential
// engine's (time, thread) order, and classifies each request:
//
//   - Resolved reads (ftl.ShardReader.TryReadPages returns true): the
//     per-page flash reads are routed to the shard owning each chip
//     (chip mod workers) and executed there concurrently. The issuing
//     thread is re-keyed in the scheduler to a conservative lower bound —
//     issue time + translation lag + the flash read lookahead — and its
//     exact completion is resolved lazily when it resurfaces as the
//     minimum (waiting for its shard ops if needed). Keys only ever grow
//     from lower bound to exact, so the standard lazy-deletion argument
//     gives the exact sequential event order.
//   - Everything else (writes, trims, CMT misses, and therefore every GC
//     trigger and translation-page access) is a translation barrier: all
//     shards quiesce, their counter views are absorbed, and the request
//     runs through the ordinary sequential issue() path.
//
// Per-chip busy times evolve byte-identically because the coordinator
// emits ops in sequential order and each shard executes its queue FIFO —
// the per-chip op order is exactly the sequential one. Collector records
// stay byte-identical because read slots are reserved at issue time (in
// order) and filled at resolution. The engine degrades to the sequential
// loop when the scheme implements no ShardReader or a fault model is
// attached (its read path mutates order-dependent per-block state).
//
// Single-worker runs keep the same classification machinery but execute
// ops inline — no goroutines, no locks — which is the mode the equivalence
// suite anchors on.

// ShardStats reports how the parallel engine behaved during one run: how
// often it could stay on the sharded fast path versus barriering. For a
// deterministic workload the stats are deterministic.
type ShardStats struct {
	// Workers is the shard count actually used (clamped to the chip
	// count; 1 when the run degraded to the sequential engine).
	Workers int
	// Events is the number of host requests processed.
	Events int64
	// Barriers counts translation barriers: requests that quiesced the
	// shards and ran sequentially (writes, trims, unresolved reads).
	Barriers int64
	// ResolvedReads counts requests served entirely from DRAM translation
	// state with their flash reads executed on shard views.
	ResolvedReads int64
	// ShardOps is the number of flash reads executed through shard views.
	ShardOps int64
	// Batched counts events whose source also ran the previous event and
	// stayed the scheduler's minimum on completing it.
	Batched int64
	// Fallback is non-empty when the run degraded to the sequential
	// engine, naming the reason.
	Fallback string
}

const (
	opChunkShift = 11 // 2048 ops per chunk
	opChunkSize  = 1 << opChunkShift
	opChunkMask  = opChunkSize - 1
)

// shardOp is one flash read handed to a shard: executed FIFO against the
// shard's chip view, its completion published back through done.
type shardOp struct {
	ppn   nand.PPN
	after nand.Time
	done  nand.Time
}

type opChunk [opChunkSize]shardOp

// shard is one worker's op queue plus its chip view. The queue is a
// chunked arena: chunk pointers are stable once allocated, so the worker
// drains runs of ops outside the lock, and slots are reused run-to-run
// without reallocation. head/tail are guarded by mu; the head advance
// publishes completed results to waiters.
type shard struct {
	mu     sync.Mutex
	cv     *sync.Cond
	chunks []*opChunk
	head   int // ops executed
	tail   int // ops enqueued
	closed bool
	view   *nand.ChipView
}

func newShard(view *nand.ChipView) *shard {
	s := &shard{view: view}
	s.cv = sync.NewCond(&s.mu)
	return s
}

// enqueue appends one read op (coordinator only) and returns its index.
func (s *shard) enqueue(ppn nand.PPN, after nand.Time) int {
	s.mu.Lock()
	if s.tail>>opChunkShift == len(s.chunks) {
		s.chunks = append(s.chunks, new(opChunk))
	}
	i := s.tail
	op := &s.chunks[i>>opChunkShift][i&opChunkMask]
	op.ppn, op.after, op.done = ppn, after, 0
	s.tail++
	s.cv.Broadcast()
	s.mu.Unlock()
	return i
}

// loop is the shard worker: drain all available ops in FIFO order, then
// publish the batch with one head advance. The chunk pointers captured
// under the lock are stable, so the timing arithmetic runs outside it.
func (s *shard) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		s.mu.Lock()
		for s.head == s.tail && !s.closed {
			s.cv.Wait()
		}
		if s.head == s.tail {
			s.mu.Unlock()
			return
		}
		lo, hi := s.head, s.tail
		chunks := s.chunks
		s.mu.Unlock()
		for i := lo; i < hi; i++ {
			op := &chunks[i>>opChunkShift][i&opChunkMask]
			op.done = s.view.Read(op.ppn, op.after)
		}
		s.mu.Lock()
		s.head = hi
		s.cv.Broadcast()
		s.mu.Unlock()
	}
}

// waitFor blocks until op i has executed and returns its completion time.
func (s *shard) waitFor(i int) nand.Time {
	s.mu.Lock()
	for s.head <= i {
		s.cv.Wait()
	}
	done := s.chunks[i>>opChunkShift][i&opChunkMask].done
	s.mu.Unlock()
	return done
}

// quiesce blocks until the shard has drained its queue.
func (s *shard) quiesce() {
	s.mu.Lock()
	for s.head < s.tail {
		s.cv.Wait()
	}
	s.mu.Unlock()
}

func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.cv.Broadcast()
	s.mu.Unlock()
}

// opRef locates a pending op of one source: which shard, which slot.
type opRef struct {
	shard int32
	idx   int32
}

// srcState is the per-thread lazily-resolved request state.
type srcState struct {
	pend    []opRef   // outstanding shard ops (parallel mode)
	base    nand.Time // issue time of the in-flight resolved read
	inline  nand.Time // running completion max (inline mode)
	lb      nand.Time // conservative completion lower bound
	look    nand.Time // accumulated translation-lookup lag (attribution)
	slot    int       // reserved collector slot, -1 when not recording
	pending bool      // a resolved read is awaiting exact completion
}

// RunSharded is Run with per-chip event sharding across the given worker
// count. Results, collector records, flash counters and device state are
// byte-identical to Run at every worker count; only wall-clock differs.
// workers <= 1 executes shard ops inline on the coordinator.
func RunSharded(f ftl.FTL, gens []Generator, maxRequests int64, workers int) (Result, ShardStats) {
	return runSharded(f, gens, maxRequests, workers, true)
}

// WarmedSharded is Warmed through the parallel engine: warm-up, then a
// full metrics reset. Device state afterwards is byte-identical to
// Warmed's at every worker count.
func WarmedSharded(f ftl.FTL, warm []Generator, maxRequests int64, workers int) (Result, ShardStats) {
	r, st := runSharded(f, warm, maxRequests, workers, false)
	f.Collector().Reset()
	f.Flash().ResetCounters()
	return r, st
}

func runSharded(f ftl.FTL, gens []Generator, maxRequests int64, workers int, record bool) (Result, ShardStats) {
	fl := f.Flash()
	st := ShardStats{}
	sr, ok := f.(ftl.ShardReader)
	switch {
	case !ok:
		st.Fallback = "scheme implements no ShardReader"
	case fl.FaultModel() != nil:
		st.Fallback = "fault model attached (order-dependent read path)"
	}
	if st.Fallback != "" {
		st.Workers = 1
		return runLoop(f, gens, maxRequests, record, nil), st
	}
	if chips := fl.Geometry().Chips(); workers > chips {
		workers = chips
	}
	if workers < 1 {
		workers = 1
	}
	st.Workers = workers
	parallel := workers > 1

	codec := fl.Codec()
	lookahead := fl.ReadLookahead()
	shards := make([]*shard, workers)
	for i := range shards {
		shards[i] = newShard(fl.View())
	}
	var wg sync.WaitGroup
	if parallel {
		for _, s := range shards {
			wg.Add(1)
			go s.loop(&wg)
		}
	}

	col := f.Collector()
	tr := col.Tracer()
	if !record {
		// Warm-up phases are not attributed, matching runLoop.
		tr = nil
	}

	// outstanding tracks ops emitted since the last quiesce+absorb, so
	// barrier storms over an op-free stretch (e.g. a pure-write warm-up)
	// cost nothing.
	var outstanding int64
	quiesce := func(now nand.Time) {
		if outstanding == 0 {
			return
		}
		for _, s := range shards {
			if parallel {
				s.quiesce()
			}
			// Absorb forwards the views' buffered trace ops on this
			// (coordinator) goroutine — the tracer stays single-threaded.
			s.view.Absorb()
		}
		outstanding = 0
		if tr != nil {
			tr.Barrier(now)
		}
	}

	start := fl.MaxChipBusy()
	sc := newSchedAt(len(gens), start)
	src := make([]srcState, len(gens))
	end := start
	var issued int64

	// resolve finalizes source i's lazily-executed read: waits out its
	// shard ops, takes the max completion, fills the reserved latency
	// slot, and folds the completion into the run end time.
	resolve := func(i int) nand.Time {
		s := &src[i]
		done := s.base
		for _, r := range s.pend {
			if d := shards[r.shard].waitFor(int(r.idx)); d > done {
				done = d
			}
		}
		s.pend = s.pend[:0]
		s.pending = false
		if record && s.slot >= 0 {
			col.FillRead(s.slot, done-s.base)
		}
		if tr != nil {
			tr.RecordResolved(done-s.base, s.look)
		}
		if done > end {
			end = done
		}
		return done
	}

	// One emit closure per source, built once: the hot path allocates
	// nothing per request.
	emits := make([]ftl.EmitRead, len(gens))
	for i := range emits {
		s := &src[i]
		emits[i] = func(ppn nand.PPN, lag nand.Time) {
			after := s.base + lag
			s.look += lag
			st.ShardOps++
			outstanding++
			if !parallel {
				if d := shards[0].view.Read(ppn, after); d > s.inline {
					s.inline = d
				}
				return
			}
			sh := int32(codec.Chip(ppn) % workers)
			idx := int32(shards[sh].enqueue(ppn, after))
			s.pend = append(s.pend, opRef{shard: sh, idx: idx})
			if lb := after + lookahead; lb > s.lb {
				s.lb = lb
			}
		}
	}

	// prev is the source of the previous event if that event completed in
	// line (not lazily): coming up again right away, it stayed the minimum.
	prev := -1
	for sc.len() > 0 {
		if maxRequests > 0 && issued >= maxRequests {
			break
		}
		th, now := sc.min()
		if src[th].pending {
			// The source surfaced at its lower bound: re-key it to the
			// exact completion. If it no longer is the minimum, whatever
			// now is goes first — keys only grow, so this converges on the
			// sequential order.
			now = resolve(th)
			sc.advance(now)
			if w, _ := sc.min(); w != th {
				continue
			}
		}
		req, ok := gens[th].Next()
		if !ok {
			sc.retire() // thread exhausted
			prev = -1
			continue
		}
		st.Events++
		if th == prev {
			st.Batched++
		}
		var done nand.Time
		if !req.Trim && !req.Write {
			pages := req.Pages
			if pages <= 0 {
				pages = 1
			}
			s := &src[th]
			s.base, s.inline, s.lb = now, now, now
			s.look = 0
			if sr.TryReadPages(req.LPN, pages, emits[th]) {
				st.ResolvedReads++
				s.slot = -1
				if record {
					s.slot = col.ReserveRead(pages)
				}
				if parallel && len(s.pend) > 0 {
					s.pending = true
					sc.advance(s.lb)
					issued++
					prev = -1
					continue
				}
				done = s.inline
				if record && s.slot >= 0 {
					col.FillRead(s.slot, done-now)
				}
				if tr != nil {
					tr.RecordResolved(done-now, s.look)
				}
			} else {
				quiesce(now)
				st.Barriers++
				if tr != nil {
					tr.BeginReq(false, now, 0)
				}
				var pages2 int
				done, pages2 = issue(f, req, now)
				if record {
					col.RecordRead(done-now, pages2)
				}
				if tr != nil {
					tr.EndReq(done)
				}
			}
		} else {
			quiesce(now)
			st.Barriers++
			if tr != nil && !req.Trim {
				tr.BeginReq(req.Write, now, 0)
			}
			var pages int
			done, pages = issue(f, req, now)
			if record && req.Write && !req.Trim {
				col.RecordWrite(done-now, pages)
			}
			if tr != nil && !req.Trim {
				tr.EndReq(done)
			}
		}
		if done > end {
			end = done
		}
		issued++
		sc.advance(done)
		prev = th
	}

	// Final drain: requests issued but not yet resolved still owe their
	// latency records and their contribution to the run end time.
	for i := range src {
		if src[i].pending {
			resolve(i)
		}
	}
	quiesce(end)
	if parallel {
		for _, s := range shards {
			s.close()
		}
		wg.Wait()
	}
	return Result{Start: start, End: end, Requests: issued}, st
}
