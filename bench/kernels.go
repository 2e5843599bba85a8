package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"learnedftl/internal/ftl"
	"learnedftl/internal/learned"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/obs"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/sweep"
	"learnedftl/internal/workload"
)

// Leaf layers — nand, mapping, learned, stats — sit under the FTLs where a
// decorator cannot reach, so each gets a kernel on a standalone object of
// its public type: the bottom rungs of the ladder that runs up through the
// per-scheme FTL calls and the engine to the whole timed phase. They do
// not depend on the workload; every traced run repeats them, so a moved
// rung shows beside the phase it supports.

const kernelReps = 5

// nsPerOp times fn, which performs ops operations, kernelReps times and
// returns the median ns per operation.
func nsPerOp(ops int, fn func()) float64 {
	var v []float64
	for r := 0; r < kernelReps; r++ {
		t0 := time.Now()
		fn()
		v = append(v, float64(time.Since(t0))/float64(ops))
	}
	return median(v)
}

var sink int64 // keeps kernel results live

// kernels runs the leaf-layer ladder.
func (b *bench) kernels(out metricSet) error {
	end := b.span("kernels")
	defer end(0)
	if err := b.nandKernels(out); err != nil {
		return err
	}
	b.mappingKernels(out)
	b.learnedKernels(out)

	n := 1_000_000 / b.shrink
	col := stats.NewCollector()
	out.put("stats.record_ns", nsPerOp(n, func() {
		col.Reset()
		for i := 0; i < n; i++ {
			col.RecordRead(nand.Time(40_000+i&1023), 1)
		}
	}), kernelReps)
	out.put("host.span_cost_ns", b.tr.spanCost(), 1)
	return nil
}

// nandKernels programs, reads and erases whole blocks of a bare flash
// array of the benchmark's geometry.
func (b *bench) nandKernels(out metricSet) error {
	g := b.cfg.Geometry
	blocks := max(1, 32/b.shrink)
	pages := blocks * g.PagesPerBlock
	var prog, read, erase []float64
	for r := 0; r < kernelReps; r++ {
		fl, err := nand.NewFlash(g, b.cfg.Timing)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for p := 0; p < pages; p++ {
			if _, err := fl.Program(nand.PPN(p), nand.OOB{Key: int64(p)}, 0, nand.OpHostData); err != nil {
				return err
			}
		}
		prog = append(prog, float64(time.Since(t0))/float64(pages))

		t0 = time.Now()
		var at nand.Time
		for p := 0; p < pages; p++ {
			at = fl.Read(nand.PPN(p), at, nand.OpHostData)
		}
		read = append(read, float64(time.Since(t0))/float64(pages))
		sink += int64(at)

		for p := 0; p < pages; p++ {
			if err := fl.Invalidate(nand.PPN(p)); err != nil {
				return err
			}
		}
		t0 = time.Now()
		for blk := 0; blk < blocks; blk++ {
			if _, err := fl.Erase(blk, 0); err != nil {
				return err
			}
		}
		erase = append(erase, float64(time.Since(t0))/float64(pages))
	}
	out.put("nand.program_ns", median(prog), kernelReps)
	out.put("nand.read_ns", median(read), kernelReps)
	out.put("nand.erase_ns_per_page", median(erase), kernelReps)
	return nil
}

// mappingKernels times a CMT of the benchmark's capacity: hits on resident
// entries, and the miss path's insert plus LRU eviction.
func (b *bench) mappingKernels(out metricSet) {
	capn := b.cfg.CMTEntries()
	n := 1_000_000 / b.shrink
	c := mapping.NewCMT(capn)
	for i := 0; i < capn; i++ {
		c.Insert(int64(i), nand.PPN(i), false)
	}
	rng := rand.New(rand.NewSource(1))
	lpns := make([]int64, 1<<16)
	for i := range lpns {
		lpns[i] = rng.Int63n(int64(capn))
	}
	out.put("mapping.cmt_hit_ns", nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			ppn, _ := c.Lookup(lpns[i&(len(lpns)-1)])
			sink += int64(ppn)
		}
	}), kernelReps)
	next := int64(capn)
	out.put("mapping.cmt_miss_evict_ns", nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			c.Insert(next, nand.PPN(next), i%2 == 0)
			next++
			for c.NeedsEviction() {
				c.EvictLRU()
			}
		}
	}), kernelReps)
}

// learnedKernels times LearnedFTL's in-place model (predict, full
// retrain), LeaFTL's log-structured mapping table lookup, and the
// error-bounded segment fit both learned schemes' training rests on.
func (b *bench) learnedKernels(out metricSet) {
	span := b.cfg.EntriesPerTP
	rng := rand.New(rand.NewSource(2))
	vppns := make([]int64, span)
	for i := range vppns {
		vppns[i] = int64(1<<20) + int64(i) + int64(rng.Intn(3))
		if rng.Intn(4) == 0 {
			vppns[i] = -1
		}
	}
	m := learned.NewInPlaceModel(span, b.cfg.MaxPieces)
	trains := max(1, 1000/b.shrink)
	out.put("learned.inplace_train_ns", nsPerOp(trains, func() {
		for i := 0; i < trains; i++ {
			sink += int64(m.TrainFull(1<<20, vppns))
		}
	}), kernelReps)
	n := 1_000_000 / b.shrink
	out.put("learned.inplace_predict_ns", nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			v, _ := m.Predict(i % span)
			sink += v
		}
	}), kernelReps)

	// A table the shape LeaFTL's warm-up leaves: segments of up to 256
	// LPNs over the logical space, with a second generation overlapping a
	// quarter of them so lookups descend levels.
	lp := b.cfg.LogicalPages()
	t := learned.NewLSMT()
	for gen := 0; gen < 2; gen++ {
		for s := int64(0); s+256 <= lp; s += 256 {
			if gen == 1 && rng.Intn(4) != 0 {
				continue
			}
			l := int32(64 + rng.Intn(193))
			t.Insert([]learned.Segment{{S: s + int64(rng.Intn(32)), L: l, K: 1, I: float64(s)}})
		}
	}
	lpns := make([]int64, 1<<16)
	for i := range lpns {
		lpns[i] = rng.Int63n(lp)
	}
	out.put("learned.lsmt_lookup_ns", nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			seg, _ := t.Lookup(lpns[i&(len(lpns)-1)])
			sink += seg.S
		}
	}), kernelReps)

	pts := make([]learned.Point, 512)
	x, y := int64(0), int64(0)
	for i := range pts {
		x += 1 + int64(rng.Intn(2))
		y += int64(rng.Intn(3))
		pts[i] = learned.Point{X: x, Y: y}
	}
	fits := max(1, 2000/b.shrink)
	out.put("learned.plr_fit_ns_per_point", nsPerOp(fits*len(pts), func() {
		for i := 0; i < fits; i++ {
			sink += int64(len(learned.FitSegments(pts, b.cfg.LeaGamma, 256)))
		}
	}), kernelReps)
}

// Probes of the paths no workload runs: the sharded engine, the attached
// observability tracer and the sweep worker pool. Each is a ratio of two
// timings of the same work, alternated probeReps times, median reported.
// They use min(2, nproc) workers; nothing else in the benchmark starts a
// goroutine.

const probeReps = 3

const hotDiv = 100 // the probes' hot set: the first 1 % of LPNs, as hotread_fit

// hotDevice restores a scheme's device and pre-touches the hot set (again,
// on hotread_fit, which changes nothing).
func (b *bench) hotDevice(s scheme) (device, error) {
	dev, err := b.restore(s, b.snaps[s.key])
	if err != nil {
		return nil, err
	}
	b.preTouch(dev, b.cfg.LogicalPages()/hotDiv)
	return dev, nil
}

func (b *bench) probeLoad(hot bool) []sim.Generator {
	lp := b.cfg.LogicalPages()
	if hot {
		lp /= hotDiv
	}
	return workload.FIO(workload.RandRead, lp, 1, closedThreads, 300_000/b.shrink/closedThreads, b.seed+17)
}

func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

func (b *bench) probes(out metricSet) error {
	end := b.span("probes")
	defer end(0)
	workers := min(2, runtime.NumCPU())
	learnedS := schemeByKey("learnedftl")

	var shard, attached, pool []float64
	for r := 0; r < probeReps; r++ {
		// sim.Run against sim.RunSharded on hot reads, which resolve in
		// DRAM and so are the reads the sharded engine can hand to workers.
		a, err := b.hotDevice(learnedS)
		if err != nil {
			return err
		}
		c, err := b.hotDevice(learnedS)
		if err != nil {
			return err
		}
		var ra, rc sim.Result
		var stat sim.ShardStats
		ta := timeIt(func() { ra = sim.Run(a, b.probeLoad(true), 0) })
		tc := timeIt(func() { rc, stat = sim.RunSharded(c, b.probeLoad(true), 0, workers) })
		if stat.Fallback != "" {
			b.fail(1, "shard probe fell back: %s", stat.Fallback)
		}
		if da, dc := phaseDigest(a, ra), phaseDigest(c, rc); da != dc {
			b.fail(1, "sim.RunSharded digest %s differs from sim.Run's %s", dc, da)
		}
		shard = append(shard, ratio(ta, tc))

		// The same cold reads with internal/obs attached and detached.
		if a, err = b.restore(learnedS, b.snaps[learnedS.key]); err != nil {
			return err
		}
		if c, err = b.restore(learnedS, b.snaps[learnedS.key]); err != nil {
			return err
		}
		ftl.AttachTracer(c, obs.NewTracer())
		ta = timeIt(func() { sim.Run(a, b.probeLoad(false), 0) })
		tc = timeIt(func() { sim.Run(c, b.probeLoad(false), 0) })
		attached = append(attached, ratio(tc, ta))

		// Five hot phases, one per scheme: one after the other, then as
		// five cells of sweep.Run.
		var serial float64
		cells := make([]sweep.Cell, len(schemes))
		for i, s := range schemes {
			one, err := b.hotDevice(s)
			if err != nil {
				return err
			}
			two, err := b.hotDevice(s)
			if err != nil {
				return err
			}
			serial += timeIt(func() { sim.Run(one, b.probeLoad(true), 0) })
			cells[i] = func() error {
				if res := sim.Run(two, b.probeLoad(true), 0); res.Requests == 0 {
					return fmt.Errorf("sweep cell issued no requests")
				}
				return nil
			}
		}
		var err2 error
		par := timeIt(func() { err2 = sweep.Run(workers, cells) })
		if err2 != nil {
			return err2
		}
		pool = append(pool, ratio(serial, par))
	}
	out.put("sim.shard2_speedup", median(shard), probeReps)
	out.put("obs.attached_slowdown", median(attached), probeReps)
	out.put("sweep.workers2_speedup", median(pool), probeReps)
	return nil
}
