package learnedftl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"learnedftl/internal/core"
	"learnedftl/internal/crash"
	"learnedftl/internal/fault"
	"learnedftl/internal/ftl"
	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/sweep"
	"learnedftl/internal/workload"
)

// Budget scales every experiment so the same code serves quick benches and
// full paper-scale reproductions.
type Budget struct {
	// Requests is the number of measured host requests per run.
	Requests int `json:"requests"`
	// WarmExtra is how many extra device capacities of random overwrites
	// follow the sequential warm-up fill (the paper uses ~6 total passes).
	WarmExtra int `json:"warm_extra"`
	// TraceScale is the fraction of each Table II trace replayed.
	TraceScale float64 `json:"trace_scale"`
	// Threads used where the paper fixes 64.
	Threads int `json:"threads"`
	// Workers bounds how many experiment cells run concurrently. Each cell
	// is one independent (scheme × workload) measurement with its own
	// device and deterministic seeding, so any Workers value produces
	// byte-identical tables; <= 1 runs serially. Use AutoWorkers() to
	// saturate the machine.
	Workers int `json:"workers"`

	// Open-loop knobs (loadsweep / tenantmix). OfferedIOPS fixes the
	// total offered arrival rate in requests per virtual second; 0 derives
	// loadsweep's rate ladder and tenantmix's operating point from the
	// device's ideal random-read capability at the run's concurrency.
	OfferedIOPS float64 `json:"offered_iops,omitempty"`
	// Arrival selects the open-loop arrival process: "poisson" (default)
	// or "fixed".
	Arrival string `json:"arrival,omitempty"`

	// CrashFuzz is crashsweep's number of seeded random crash points
	// injected per scheme on top of the enumeration (0 = 40; the root
	// acceptance test raises the total past 200 across the five schemes).
	CrashFuzz int `json:"crash_fuzz,omitempty"`

	// Scale-experiment knobs. The scale experiment climbs a geometry
	// ladder from the tiny device up to the paper's 32 GiB one;
	// ScaleMaxGiB caps the ladder (0 = a 2 GiB default that keeps quick
	// runs quick; PaperBudget raises it to the full 32) and ScaleMinGiB
	// cuts the lower rungs off, so one mid-size rung can be profiled alone
	// with min == max.
	ScaleMinGiB float64 `json:"scale_min_gib,omitempty"`
	ScaleMaxGiB float64 `json:"scale_max_gib,omitempty"`

	// Checkpoints, when set, lets experiment cells restore a warmed device
	// from a snapshot keyed by (scheme, config, warm-up spec) instead of
	// re-simulating the warm-up — the dominant cost of a sweep. Snapshots
	// are bit-exact, so tables are byte-identical with or without the
	// cache; a missing or stale entry just falls back to the cold path and
	// repopulates it. Shared safely across parallel cells.
	Checkpoints *persist.Cache `json:"-"`

	// Progress, when set, is invoked after each completed experiment cell
	// with (cells done, cells total). Callbacks come from whichever worker
	// goroutine finished the cell and must be safe for concurrent use;
	// cmd/ftlbench -progress wires a stderr ticker here. Never serialized.
	Progress func(done, total int) `json:"-"`
}

// WarmStats summarizes one device warm-up: deterministic simulated cost
// (flash programs, virtual span, host requests) over host wall clock.
type WarmStats struct {
	Programs int64     // flash programs simulated during warm-up
	Requests int64     // host requests the warm-up issued
	Span     nand.Time // virtual time the warm-up covered
	Seconds  float64   // host wall clock
}

// openLoopKind resolves and validates the budget's arrival process for the
// open-loop experiments, which need a rate-controlled process: a typo'd
// Arrival string must error, not silently fall back to Poisson, and
// "unbounded" would make the offered-IOPS axis meaningless.
func (b Budget) openLoopKind() (sim.ArrivalKind, error) {
	k, ok := sim.ParseArrival(b.Arrival)
	if !ok || k == sim.ArrivalUnbounded {
		return 0, fmt.Errorf("learnedftl: open-loop experiments need arrival %q or %q, got %q",
			sim.ArrivalPoisson, sim.ArrivalFixed, b.Arrival)
	}
	return k, nil
}

// runCells executes n independent experiment cells under the budget's
// worker pool. Each cell must write its result only into slots it owns
// (indexed by i), which makes table assembly order-preserving regardless of
// completion order. With Budget.Progress set, each completed cell reports
// (done, total). Every experiment and TraceCapture runs through here, so
// this is where a budget no cell can run under is rejected: every
// closed-loop measurement divides its requests across b.Threads, and an
// offered rate no arrival process can pace is an error, not a garbage
// table.
func runCells(b Budget, n int, cell func(i int) error) error {
	if b.Threads < 1 {
		return fmt.Errorf("learnedftl: budget threads %d < 1", b.Threads)
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"trace scale", b.TraceScale},
		{"offered IOPS", b.OfferedIOPS},
		{"scale min GiB", b.ScaleMinGiB},
		{"scale max GiB", b.ScaleMaxGiB},
	} {
		if !(k.v >= 0) || math.IsInf(k.v, 1) {
			return fmt.Errorf("learnedftl: budget %s %v is not a finite value >= 0", k.name, k.v)
		}
	}
	if b.Requests < 0 || b.WarmExtra < 0 || b.CrashFuzz < 0 {
		return fmt.Errorf("learnedftl: budget requests %d, warm extra %d and crash fuzz %d must be >= 0",
			b.Requests, b.WarmExtra, b.CrashFuzz)
	}
	var done atomic.Int64
	return sweep.Run(b.Workers, sweep.Tasks(n, func(i int) error {
		err := cell(i)
		if b.Progress != nil {
			b.Progress(int(done.Add(1)), n)
		}
		return err
	}))
}

// QuickBudget finishes the whole suite in minutes on a laptop.
func QuickBudget() Budget {
	return Budget{Requests: 24000, WarmExtra: 1, TraceScale: 0.03, Threads: 64}
}

// PaperBudget approximates the paper's run sizes (hours of CPU).
func PaperBudget() Budget {
	return Budget{Requests: 500000, WarmExtra: 5, TraceScale: 1.0, Threads: 64, ScaleMaxGiB: 32}
}

// Table is a printable experiment result.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// String renders the table with aligned columns; a row wider than the
// header gets columns of its own.
func (t Table) String() string {
	var widths []int
	for _, r := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func ms(t nand.Time) string {
	return fmt.Sprintf("%.2fms", float64(t)/float64(nand.Millisecond))
}

// sci formats reliability rates (UBER, BER) in scientific notation.
func sci(v float64) string { return fmt.Sprintf("%.2e", v) }

// lat renders a latency with a unit scaled to its magnitude, so µs-scale
// service times and second-scale saturation queues stay readable in one
// column.
func lat(t nand.Time) string {
	switch {
	case t < nand.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(t)/float64(nand.Microsecond))
	case t < nand.Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(nand.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(t)/float64(nand.Second))
	}
}

// persistKey canonically identifies a (scheme, configuration) pair for
// snapshot fingerprints. Config is a flat value struct, so %+v renders it
// deterministically.
func persistKey(name string, cfg Config) string {
	return fmt.Sprintf("%s|%+v", name, cfg)
}

// warmKey identifies a warm checkpoint: the device identity plus WarmExtra
// (the settle phase is derived from the config). The cache adds the build,
// so a change to the model or to warmDevice misses on its own.
func warmKey(s Scheme, cfg Config, extra int) string {
	return fmt.Sprintf("extra=%d|%s", extra, persistKey(s.String(), cfg))
}

// cell is one point of an experiment's grid: its index on each axis, the
// budget it runs under, and the slots the runner assembles once every cell
// is done — table rows, the reports a post step combines, BENCH payloads
// and the cold warm-up cost the cell paid. A cell writes only its own
// slots, so assembly is in grid order at any worker count.
type cell struct {
	at      []int
	b       Budget
	rows    [][]string
	reports []stats.Report
	obs     []ObsCell
	fleet   []FleetCell
	warm    WarmStats
}

// cellFunc measures one cell.
type cellFunc func(c *cell) error

// row appends one table row.
func (c *cell) row(cols ...string) { c.rows = append(c.rows, cols) }

// warmUp brings f to steady state (warmDevice) and charges the cost to the
// cell.
func (c *cell) warmUp(f FTL) WarmStats {
	ws := warmDevice(f, c.b)
	c.warm.Programs += ws.Programs
	c.warm.Seconds += ws.Seconds
	return ws
}

// warmed builds a scheme's device and brings it to the paper's steady
// state: a sequential fill plus Budget.WarmExtra capacities of 512KB
// random overwrites (§IV-B), with metrics reset afterwards. With
// Budget.Checkpoints set, a cached warm snapshot restores the device
// instead — bit-exact, so downstream measurement is unchanged — and a cold
// warm-up stores its snapshot for the next cell or run.
func (c *cell) warmed(s Scheme, cfg Config) (FTL, error) {
	f, err := New(s, cfg)
	if err != nil {
		return nil, err
	}
	cache := c.b.Checkpoints
	if cache == nil {
		c.warmUp(f)
		return f, nil
	}
	key := warmKey(s, cfg, c.b.WarmExtra)
	if data, ok := cache.Load(key); ok {
		if persist.Restore(f, key, data) == nil {
			// The restored lifetime program count is exactly the warm-up
			// work this hit avoided re-simulating.
			life := f.Flash().LifetimeCounters()
			cache.NoteRestored(life.TotalPrograms())
			return f, nil
		}
		// Corrupt: a miss. The cold warm-up below overwrites the entry, on a
		// fresh device: the failed restore may have loaded part of it.
		cache.NoteUnusable()
		if f, err = New(s, cfg); err != nil {
			return nil, err
		}
	}
	c.warmUp(f)
	cache.Store(key, persist.Snapshot(f, key))
	return f, nil
}

func warmDevice(f FTL, b Budget) WarmStats {
	start := time.Now()
	lifeBefore := f.Flash().LifetimeCounters()
	before := lifeBefore.TotalPrograms()
	lp := f.Config().LogicalPages()
	r1 := sim.Warmed(f, workload.Warmup(lp, b.WarmExtra, 128, 1), 0)
	// Settle the mapping caches: the write warm-up leaves them full of
	// dirty entries whose one-time write-back would otherwise dominate a
	// short measured window (the paper's multi-minute runs amortize this).
	settle := 2 * f.Config().CMTEntries()
	r2 := sim.Warmed(f, workload.FIO(workload.RandRead, lp, 1, 16, settle/16+1, 977), 0)
	lifeAfter := f.Flash().LifetimeCounters()
	return WarmStats{
		Programs: lifeAfter.TotalPrograms() - before,
		Requests: r1.Requests + r2.Requests,
		Span:     r1.Makespan() + r2.Makespan(),
		Seconds:  time.Since(start).Seconds(),
	}
}

// perThread splits a request budget evenly across threads, at least one
// request each.
func perThread(total, threads int) int { return max(1, total/threads) }

// measure runs generators on a (typically warmed) device and summarizes.
func measure(f FTL, gens []sim.Generator) stats.Report {
	f.Collector().Reset()
	f.Flash().ResetCounters()
	res := sim.Run(f, gens, 0)
	return report(f, res)
}

// blockEndurance is the rated program/erase cycles per block (typical TLC)
// behind the projected-lifetime column.
const blockEndurance = 3000

// report freezes a run into a stats.Report with the device's wear view and
// model footprint attached.
func report(f FTL, res sim.Result) stats.Report {
	cfg := f.Config()
	r := stats.BuildReport(f.Name(), f.Collector(), f.Flash().Counters(),
		res.Makespan(), cfg.Geometry.PageSize, cfg.Energy)
	r.AddWear(f.Flash().Wear(), blockEndurance, cfg.Geometry.TotalBytes())
	r.AddFootprint(f.Flash().Footprint())
	r.AddReliability(f.Flash().RelCounters(), f.Flash().BadBlocks(), cfg.Geometry.PageSize)
	return r
}

// measureFIO measures one FIO pattern.
func measureFIO(f FTL, p workload.Pattern, threads, ioPages, total int) stats.Report {
	gens := workload.FIO(p, f.Config().LogicalPages(), ioPages, threads, perThread(total, threads), 7)
	return measure(f, gens)
}

// measureOpen runs open-loop streams on a (typically warmed) device, with
// idle-gap background GC when asked, and summarizes, including the
// queue-wait decomposition and per-tenant breakdown RunOpenWith records.
func measureOpen(f FTL, streams []sim.Stream, backgroundGC bool) stats.Report {
	f.Collector().Reset()
	f.Flash().ResetCounters()
	res := sim.RunOpenWith(f, streams, sim.OpenOptions{BackgroundGC: backgroundGC})
	return report(f, res)
}

// idealRandReadIOPS anchors the open-loop experiments' offered load: the
// 4KB random-read rate a perfectly striped device would sustain at the
// run's concurrency (one outstanding request per stream, capped by the
// chip count). Real schemes saturate below it — translation reads and GC
// eat into the budget — which is exactly the knee the load sweep exposes.
func idealRandReadIOPS(cfg Config, streams int) float64 {
	conc := max(1, min(streams, cfg.Geometry.Chips()))
	return float64(conc) * float64(nand.Second) / float64(cfg.Timing.ReadLatency)
}

// experiment is one registry entry: what an experiment measures and how it
// prints. The runner (run) supplies the rest — the cell grid, the worker
// pool, row and payload slots, warm-up accounting and Table assembly.
type experiment struct {
	id, desc string
	title    string
	header   []string
	// grid validates the budget and derives the swept axes from the config
	// and budget: one size per axis, cells numbered row-major (last axis
	// fastest), and the function that measures one cell.
	grid func(cfg Config, b Budget) ([]int, cellFunc, error)
	// post, when set, finishes the table once every cell is done: the
	// experiments that compare cells with each other build their rows
	// from the cells' reports, and mountlat fits its header to the
	// config.
	post func(t *Table, cfg Config, b Budget, cells []*cell)
}

// run executes one experiment and assembles its BENCH result.
func (e experiment) run(cfg Config, b Budget) (BenchResult, error) {
	start := time.Now()
	axes, measure, err := e.grid(cfg, b)
	if err != nil {
		return BenchResult{}, err
	}
	g := sweep.NewGrid(axes...)
	cells := make([]*cell, g.Cells())
	err = runCells(b, len(cells), func(i int) error {
		c := &cell{at: make([]int, len(axes)), b: b}
		for a := range axes {
			c.at[a] = g.Coord(i, a)
		}
		cells[i] = c
		return measure(c)
	})
	if err != nil {
		return BenchResult{}, err
	}
	r := BenchResult{Experiment: e.id}
	t := Table{Title: e.title, Header: slices.Clone(e.header)}
	var warm WarmStats
	for _, c := range cells {
		t.Rows = append(t.Rows, c.rows...)
		r.Obs = append(r.Obs, c.obs...)
		r.Fleet = append(r.Fleet, c.fleet...)
		warm.Programs += c.warm.Programs
		warm.Seconds += c.warm.Seconds
	}
	if e.post != nil {
		e.post(&t, cfg, b, cells)
	}
	r.Table = t
	r.Seconds = time.Since(start).Seconds()
	if warm.Programs > 0 {
		r.WarmMpg = float64(warm.Programs) / 1e6
		r.WarmSeconds = warm.Seconds
		if warm.Seconds > 0 {
			r.WarmMpgPerSec = r.WarmMpg / warm.Seconds
		}
	}
	return r, nil
}

// ExperimentInfo describes one runnable experiment for the ftlbench -list
// table.
type ExperimentInfo struct {
	ID   string
	Desc string
}

// ExperimentList returns every experiment in presentation order (paper
// figures first, then the simulator's own experiments).
func ExperimentList() []ExperimentInfo {
	out := make([]ExperimentInfo, len(experiments))
	for i, e := range experiments {
		out[i] = ExperimentInfo{e.id, e.desc}
	}
	return out
}

// ExperimentIDs returns the sorted experiment ids; cmd/ftlbench and the
// README use these ids.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	sort.Strings(ids)
	return ids
}

// experiments is the registry, in presentation order: paper figures first,
// then the simulator's own experiments.
var experiments = []experiment{
	// The motivation experiment: each thread count is one cell measuring a
	// freshly warmed TPFTL device.
	{
		id: "fig2", desc: "TPFTL seq/rand read throughput + CMT hit vs thread count",
		title:  "Fig 2: TPFTL read performance vs threads (seq uses 8-page I/O, rand 1-page)",
		header: []string{"threads", "seqread MB/s", "randread MB/s", "seq CMT hit", "rand CMT hit"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			threads := []int{1, 16, 32, 64}
			return []int{len(threads)}, func(c *cell) error {
				th := threads[c.at[0]]
				f, err := c.warmed(SchemeTPFTL, cfg)
				if err != nil {
					return err
				}
				seq := measureFIO(f, workload.SeqRead, th, 8, b.Requests)
				rnd := measureFIO(f, workload.RandRead, th, 1, b.Requests)
				c.row(fmt.Sprint(th), f1(seq.ReadMBps), f1(rnd.ReadMBps),
					pct(seq.CMTHitRatio), pct(rnd.CMTHitRatio))
				return nil
			}, nil
		},
	},
	// The CMT-scaling experiment: TPFTL's random-read hit ratio barely
	// improves even with a CMT holding 50% of all mappings.
	{
		id: "fig3", desc: "TPFTL CMT hit ratio vs CMT size (0.1%-50%)",
		title:  "Fig 3: TPFTL CMT hit ratio vs CMT space (randread, 64 threads)",
		header: []string{"CMT space", "hit ratio"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			ratios := []float64{0.001, 0.03, 0.10, 0.30, 0.50}
			return []int{len(ratios)}, func(c *cell) error {
				dcfg := cfg
				dcfg.CMTRatio = ratios[c.at[0]]
				f, err := c.warmed(SchemeTPFTL, dcfg)
				if err != nil {
					return err
				}
				r := measureFIO(f, workload.RandRead, b.Threads, 1, b.Requests)
				c.row(pct(dcfg.CMTRatio), pct(r.CMTHitRatio))
				return nil
			}, nil
		},
	},
	// The LeaFTL motivation: random-read throughput normalized to TPFTL,
	// and LeaFTL's single/double/triple read breakdown.
	{
		id: "fig6", desc: "LeaFTL vs TPFTL random reads; single/double/triple breakdown",
		title:  "Fig 6: LeaFTL vs TPFTL under FIO random reads",
		header: []string{"FTL", "MB/s", "norm vs TPFTL", "single", "double", "triple"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			schemes := []Scheme{SchemeTPFTL, SchemeLeaFTL}
			return []int{len(schemes)}, func(c *cell) error {
				f, err := c.warmed(schemes[c.at[0]], cfg)
				if err != nil {
					return err
				}
				c.reports = append(c.reports, measureFIO(f, workload.RandRead, b.Threads, 1, b.Requests))
				return nil
			}, nil
		},
		post: func(t *Table, _ Config, _ Budget, cells []*cell) {
			tp, le := cells[0].reports[0], cells[1].reports[0]
			for _, r := range []stats.Report{le, tp} {
				t.Rows = append(t.Rows, []string{
					r.FTL, f1(r.ReadMBps), f2(r.ReadMBps / tp.ReadMBps),
					pct(r.SingleFrac), pct(r.DoubleFrac), pct(r.TripleFrac),
				})
			}
		},
	},
	// The locality motivation: TPFTL vs LeaFTL on Filebench. One cell per
	// scheme; the three personalities run back-to-back on that cell's
	// device, as the paper's successive Filebench runs do.
	{
		id: "fig7", desc: "TPFTL vs LeaFTL on Filebench personalities",
		title:  "Fig 7: TPFTL vs LeaFTL on Filebench (throughput norm. to TPFTL; hit = single-read fraction)",
		header: []string{"workload", "LeaFTL norm", "TPFTL norm", "LeaFTL single", "TPFTL single"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			schemes := []Scheme{SchemeTPFTL, SchemeLeaFTL}
			return []int{len(schemes)}, func(c *cell) error {
				f, err := c.warmed(schemes[c.at[0]], cfg)
				if err != nil {
					return err
				}
				for _, k := range filebenchKinds {
					c.reports = append(c.reports, filebenchRun(f, k, b))
				}
				return nil
			}, nil
		},
		post: func(t *Table, _ Config, _ Budget, cells []*cell) {
			for j, k := range filebenchKinds {
				tp, le := cells[0].reports[j], cells[1].reports[j]
				t.Rows = append(t.Rows, []string{
					k.String(), f2((le.ReadMBps + le.WriteMBps) / (tp.ReadMBps + tp.WriteMBps)), "1.00",
					pct(le.SingleFrac), pct(tp.SingleFrac),
				})
			}
		},
	},
	// The headline FIO comparison: throughput for four access patterns,
	// hit ratios for reads and write amplification for writes, across all
	// five FTLs.
	{
		id: "fig14", desc: "headline FIO comparison: all five FTLs x four patterns",
		title: "Fig 14: FIO at 64 threads (throughput MB/s; CMT+model hit; WA)",
		header: []string{"FTL", "randread", "seqread", "randwrite", "seqwrite",
			"rr CMT", "rr model", "sr CMT", "sr model", "WA rand", "WA seq"},
		grid: perScheme(func(c *cell, s Scheme, cfg Config, b Budget) error {
			f, err := c.warmed(s, cfg)
			if err != nil {
				return err
			}
			rr := measureFIO(f, workload.RandRead, b.Threads, 1, b.Requests)
			sr := measureFIO(f, workload.SeqRead, b.Threads, 8, b.Requests)
			rw := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
			sw := measureFIO(f, workload.SeqWrite, b.Threads, 8, b.Requests)
			c.row(s.String(),
				f1(rr.ReadMBps), f1(sr.ReadMBps), f1(rw.WriteMBps), f1(sw.WriteMBps),
				pct(rr.CMTHitRatio), pct(rr.ModelHitRatio),
				pct(sr.CMTHitRatio), pct(sr.ModelHitRatio),
				f2(rw.WriteAmp), f2(sw.WriteAmp))
			return nil
		}),
	},
	// The real host-CPU cost of the three added operations — LPN sorting,
	// model training and model prediction — on a full 512-entry GTD entry,
	// mirroring the paper's X86/ARM microbenchmark.
	{
		id: "fig15", desc: "host-CPU cost of sorting / training / prediction (wall clock)",
		title:  "Fig 15: computing overhead of the added operations (host CPU; paper: ~50µs sort+train, 0.65µs predict on ARM A72)",
		header: []string{"operation", "cost/entry"},
		grid: func(Config, Budget) ([]int, cellFunc, error) {
			return []int{1}, func(c *cell) error {
				const span = 512
				rng := rand.New(rand.NewSource(1))
				vppns := make([]int64, span)
				base := int64(1 << 20)
				for i := range vppns {
					if rng.Intn(4) == 0 {
						vppns[i] = -1
						continue
					}
					vppns[i] = base + int64(i) + int64(rng.Intn(3))
				}
				timeOp := func(iters int, op func()) time.Duration {
					start := time.Now()
					for i := 0; i < iters; i++ {
						op()
					}
					return time.Since(start) / time.Duration(iters)
				}
				lpns := make([]int64, span)
				sortCost := timeOp(2000, func() {
					for i := range lpns {
						lpns[i] = int64(rng.Intn(1 << 20))
					}
					sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
				})
				m := learned.NewInPlaceModel(span, 8)
				trainCost := timeOp(2000, func() { m.TrainFull(base, vppns) })
				var sink int64
				predictCost := timeOp(200000, func() {
					v, _ := m.Predict(128)
					sink += v
				})
				if sink == -1 {
					panic("unreachable")
				}
				c.row("sorting (512 LPNs)", sortCost.String())
				c.row("training (512-entry model)", trainCost.String())
				c.row("prediction", predictCost.String())
				return nil
			}, nil
		},
	},
	// The GC-frequency comparison under FIO random and sequential writes.
	{
		id: "fig16", desc: "GC count and frequency under FIO writes",
		title:  "Fig 16: GC activity under FIO writes (count; mean GCs per simulated second)",
		header: []string{"FTL", "rand GCs", "rand GC/s", "seq GCs", "seq GC/s"},
		grid: perScheme(func(c *cell, s Scheme, cfg Config, b Budget) error {
			f, err := c.warmed(s, cfg)
			if err != nil {
				return err
			}
			rw := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
			randGC := f.Collector().GCCount
			sw := measureFIO(f, workload.SeqWrite, b.Threads, 8, b.Requests)
			seqGC := f.Collector().GCCount
			c.row(s.String(), fmt.Sprint(randGC), f2(rate(randGC, rw.Makespan)),
				fmt.Sprint(seqGC), f2(rate(seqGC, sw.Makespan)))
			return nil
		}),
	},
	// The GC-time breakdown: the share of LearnedFTL's GC time spent on
	// sorting + training, across increasing run lengths.
	{
		id: "fig17", desc: "sorting+training share of LearnedFTL GC time",
		title:  "Fig 17: sorting+training share of LearnedFTL GC time (paper: <= 3.2%)",
		header: []string{"randwrite requests", "GC busy", "sort+train", "share"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			mults := []float64{0.5, 1, 2}
			return []int{len(mults)}, func(c *cell) error {
				f, err := c.warmed(SchemeLearnedFTL, cfg)
				if err != nil {
					return err
				}
				n := int(float64(b.Requests) * mults[c.at[0]])
				measureFIO(f, workload.RandWrite, b.Threads, 1, n)
				col := f.Collector()
				share := 0.0
				if col.GCBusyTime > 0 {
					share = float64(col.SortTrainNS) / float64(col.GCBusyTime)
				}
				c.row(fmt.Sprint(n), ms(col.GCBusyTime), ms(nand.Time(col.SortTrainNS)),
					fmt.Sprintf("%.2f%%", share*100))
				return nil
			}, nil
		},
	},
	// The overhead ablations: (a) random-write throughput with and without
	// the training+sorting charge, (b) read throughput of LearnedFTL vs
	// "ideal LearnedFTL" (no prediction cost, full DRAM map). The six runs
	// are independent devices, one cell each: randwrite with and without
	// the charge, then randread and seqread each with and without the
	// prediction cost.
	{
		id: "fig18", desc: "LearnedFTL overhead ablations (training charge, prediction cost)",
		title:  "Fig 18: LearnedFTL overhead ablations",
		header: []string{"comparison", "LearnedFTL", "counterpart", "ratio"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			return []int{6}, func(c *cell) error {
				i, cfg := c.at[0], cfg // cells run concurrently: switch a copy
				p, io := workload.RandWrite, 1
				switch {
				case i < 2:
					cfg.Learned.ChargeTraining = i == 0
				case i < 4:
					p = workload.RandRead
				default:
					p, io = workload.SeqRead, 8
				}
				if i >= 2 && i%2 == 1 {
					cfg.Learned.PredictCost = 0
				}
				f, err := c.warmed(SchemeLearnedFTL, cfg)
				if err != nil {
					return err
				}
				c.reports = append(c.reports, measureFIO(f, p, b.Threads, io, b.Requests))
				return nil
			}, nil
		},
		post: func(t *Table, _ Config, _ Budget, cells []*cell) {
			pair := func(label string, i int, mbps func(stats.Report) float64) []string {
				ld, other := mbps(cells[i].reports[0]), mbps(cells[i+1].reports[0])
				return []string{label, f1(ld), f1(other), f2(ld / other)}
			}
			write := func(r stats.Report) float64 { return r.WriteMBps }
			read := func(r stats.Report) float64 { return r.ReadMBps }
			t.Rows = [][]string{
				pair("randwrite MB/s (w/ vs w/o train+sort)", 0, write),
				pair("randread MB/s (LD vs ideal-LD)", 2, read),
				pair("seqread MB/s (LD vs ideal-LD)", 4, read),
			}
		},
	},
	// The RocksDB experiment: db_bench readrandom/readseq with one thread
	// over an 80%-full LSM-shaped database.
	{
		id: "fig19", desc: "RocksDB db_bench readrandom/readseq model",
		title:  "Fig 19: RocksDB db_bench model, 1 thread (throughput; hit ratios)",
		header: []string{"FTL", "readrandom MB/s", "readseq MB/s", "rr CMT", "rr model", "rs CMT", "rs model"},
		grid: perScheme(func(c *cell, s Scheme, cfg Config, b Budget) error {
			f, err := New(s, cfg)
			if err != nil {
				return err
			}
			lp := cfg.LogicalPages()
			sim.Warmed(f, workload.RocksDBFill(lp, 0.8, float64(b.WarmExtra), 3), 0)
			rr := measure(f, workload.RocksDBReadRandom(lp, 0.8, 1, b.Requests, 5))
			rs := measure(f, workload.RocksDBReadSeq(lp, 0.8, 1, b.Requests, 5))
			c.row(s.String(), f1(rr.ReadMBps), f1(rs.ReadMBps),
				pct(rr.CMTHitRatio), pct(rr.ModelHitRatio),
				pct(rs.CMTHitRatio), pct(rs.ModelHitRatio))
			return nil
		}),
	},
	// The Filebench comparison across all five FTLs.
	{
		id: "fig20", desc: "Filebench throughput, all five FTLs",
		title:  "Fig 20: Filebench throughput (MB/s read+write; Table I configs)",
		header: []string{"FTL", "fileserver", "webserver", "varmail"},
		grid: perScheme(func(c *cell, s Scheme, cfg Config, b Budget) error {
			f, err := c.warmed(s, cfg)
			if err != nil {
				return err
			}
			row := []string{s.String()}
			for _, k := range filebenchKinds {
				r := filebenchRun(f, k, b)
				row = append(row, f1(r.ReadMBps+r.WriteMBps))
			}
			c.row(row...)
			return nil
		}),
	},
	// The tail-latency evaluation over the four Table II traces.
	{
		id: "fig21", desc: "P99/P99.9 tail latency under Table II traces",
		title:  "Fig 21: P99 / P99.9 tail latency under real-world traces",
		header: []string{"trace", "TPFTL p99", "LeaFTL p99", "LearnedFTL p99", "ideal p99", "TPFTL p999", "LeaFTL p999", "LearnedFTL p999", "ideal p999"},
		grid:   traceGrid,
		post: func(t *Table, _ Config, _ Budget, cells []*cell) {
			t.Rows = traceRows(cells, func(reps []stats.Report) []string {
				var row []string
				for _, r := range reps {
					row = append(row, ms(r.P99))
				}
				for _, r := range reps {
					row = append(row, ms(r.P999))
				}
				return row
			})
		},
	},
	// The energy comparison over the four traces, normalized to TPFTL.
	{
		id: "fig22", desc: "energy under Table II traces, normalized to TPFTL",
		title:  "Fig 22: energy under real-world traces (normalized to TPFTL)",
		header: []string{"trace", "TPFTL", "LeaFTL", "LearnedFTL", "ideal"},
		grid:   traceGrid,
		post: func(t *Table, _ Config, _ Budget, cells []*cell) {
			t.Rows = traceRows(cells, func(reps []stats.Report) []string {
				var row []string
				for _, r := range reps {
					if base := reps[0].EnergyMJ; base > 0 {
						row = append(row, f2(r.EnergyMJ/base))
					} else {
						row = append(row, "n/a")
					}
				}
				return row
			})
		},
	},
	// A self-check of the synthetic trace generators against the published
	// Table II characteristics.
	{
		id: "table2", desc: "trace-generator self-check against published statistics",
		title:  "Table II: synthetic trace generators vs published characteristics",
		header: []string{"trace", "#I/O (paper)", "#I/O (gen)", "avg KB (paper)", "avg KB (gen)", "read% (paper)", "read% (gen)"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			specs := workload.Traces()
			return []int{len(specs)}, func(c *cell) error {
				spec := specs[c.at[0]]
				reqs, avgKB, readFrac := spec.Stats(cfg.LogicalPages(), b.TraceScale)
				c.row(spec.Name,
					fmt.Sprint(spec.Requests), fmt.Sprintf("%d (×%.2f)", reqs, b.TraceScale),
					f1(spec.AvgKB), f1(avgKB),
					pct(spec.ReadRatio), pct(readFrac))
				return nil
			}, nil
		},
	},
	// The latency-vs-offered-load curve of every scheme: open-loop random
	// reads at a ladder of offered IOPS, reporting achieved throughput,
	// mean/P99/P99.9 total latency and the share of latency spent in the
	// arrival queue. Budget.OfferedIOPS > 0 narrows the ladder to that
	// single rate; Budget.Arrival picks the arrival process.
	{
		id: "loadsweep", desc: "open-loop latency vs offered IOPS for all five FTLs",
		title:  "Load sweep: open-loop randread latency vs offered IOPS (wait = share of latency spent queued)",
		header: []string{"FTL", "offered IOPS", "achieved IOPS", "mean", "p99", "p99.9", "wait"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			kind, err := b.openLoopKind()
			if err != nil {
				return nil, nil, err
			}
			rates := []float64{b.OfferedIOPS}
			if b.OfferedIOPS <= 0 {
				base := idealRandReadIOPS(cfg, b.Threads)
				rates = nil
				for _, fr := range loadSweepFractions {
					rates = append(rates, fr*base)
				}
			}
			schemes := Schemes()
			return []int{len(schemes), len(rates)}, func(c *cell) error {
				s, rate := schemes[c.at[0]], rates[c.at[1]]
				f, err := c.warmed(s, cfg)
				if err != nil {
					return err
				}
				streams := workload.OpenFIO("randread", workload.RandRead, f.Config().LogicalPages(),
					1, b.Threads, perThread(b.Requests, b.Threads), kind, rate, 1117)
				r := measureOpen(f, streams, false)
				c.row(s.String(), f0(rate), f0(r.IOPS),
					lat(r.MeanLat), lat(r.P99), lat(r.P999), pct(r.WaitShare))
				return nil
			}, nil
		},
	},
	// Two rate-controlled tenants sharing one device — WebSearch-like reads
	// and Systor-like write-heavy traffic — with per-tenant mean/P99/P99.9
	// latency and queue-wait share for every scheme. Budget.OfferedIOPS
	// overrides the combined operating point; 70% of it goes to the read
	// tenant.
	{
		id: "tenantmix", desc: "two rate-controlled tenants sharing one device",
		title:  "Tenant mix: WebSearch reads + Systor writes sharing one device (per-tenant open-loop latency)",
		header: []string{"FTL", "tenant", "offered IOPS", "requests", "mean", "p99", "p99.9", "wait"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			kind, err := b.openLoopKind()
			if err != nil {
				return nil, nil, err
			}
			const share = 0.7
			total := b.OfferedIOPS
			if total <= 0 {
				// Default operating point: a quarter of the device's ideal
				// page rate, converted to a request rate via the mix's mean
				// request size. That lands below the slowest scheme's knee,
				// so the table differentiates tenants by moderate queueing
				// rather than placing every scheme in deep overload.
				wsPages := workload.WebSearch1.AvgKB * 1024 / float64(cfg.Geometry.PageSize)
				sysPages := workload.Systor17.AvgKB * 1024 / float64(cfg.Geometry.PageSize)
				mixPages := share*wsPages + (1-share)*sysPages
				total = 0.25 * idealRandReadIOPS(cfg, b.Threads) / mixPages
			}
			offered := []float64{total * share, total * (1 - share)}
			spt := max(1, b.Threads/2)
			perTenant := max(spt, b.Requests/2)
			schemes := Schemes()
			return []int{len(schemes)}, func(c *cell) error {
				f, err := c.warmed(schemes[c.at[0]], cfg)
				if err != nil {
					return err
				}
				streams := workload.TenantMix(f.Config().LogicalPages(), spt, perTenant,
					kind, offered[0], offered[1])
				r := measureOpen(f, streams, false)
				for j, sr := range r.Streams[:min(len(r.Streams), len(offered))] {
					c.row(schemes[c.at[0]].String(), sr.Name, f0(offered[j]),
						fmt.Sprint(sr.Requests), lat(sr.MeanLat), lat(sr.P99), lat(sr.P999),
						pct(sr.WaitShare))
				}
				return nil
			}, nil
		},
	},
	// Write amplification, GC activity and wear versus the
	// over-provisioning ratio for every scheme × victim-selection policy:
	// random single-page overwrites on a warmed device, the workload where
	// GC dominates. WA falls monotonically as OP grows (more slack ⇒
	// emptier victims ⇒ less relocation); the policy columns show what
	// victim selection buys at fixed OP.
	{
		id: "gcsweep", desc: "write amplification and wear vs over-provisioning x GC policy",
		title:  "GC sweep: write amplification and wear vs over-provisioning (randwrite; moved = pages relocated per GC; PE = erases)",
		header: []string{"FTL", "policy", "OP", "WA", "GCs", "moved/GC", "max PE", "PE CV", "life TB"},
		grid:   gcSweepGrid(GCPolicies()),
	},
	// Open-loop write tail latency under foreground-only versus background
	// garbage collection, per scheme, at a moderate offered load. The
	// default operating point is half of what the scheme itself sustains
	// under closed-loop random writes on the same warmed device (a per-cell
	// saturation probe), so every scheme sees real arrival gaps for
	// background collection to hide in — a device-wide anchor would
	// overload the slow schemes and starve the fast ones of GC pressure.
	// Foreground mode charges collections to the triggering write (the
	// paper's tail mechanism); background mode runs them in arrival gaps,
	// cutting P99/P99.9. Budget.OfferedIOPS overrides the operating point,
	// Budget.Arrival the arrival process.
	{
		id: "gclat", desc: "open-loop write tails: foreground vs background GC",
		title:  "GC latency: open-loop randwrite tails, foreground vs background collection",
		header: []string{"FTL", "gc mode", "offered IOPS", "achieved IOPS", "mean", "p99", "p99.9", "wait", "GCs", "bg GCs"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			kind, err := b.openLoopKind()
			if err != nil {
				return nil, nil, err
			}
			modes := []string{"foreground", "background"}
			schemes := Schemes()
			return []int{len(schemes), len(modes)}, func(c *cell) error {
				s, background := schemes[c.at[0]], c.at[1] == 1
				f, err := c.warmed(s, cfg)
				if err != nil {
					return err
				}
				rate := b.OfferedIOPS
				if rate <= 0 {
					// Saturation probe: closed-loop randwrite on this very
					// device. Deterministic, so the foreground and
					// background cells of one scheme derive the same
					// operating point.
					probe := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests/2)
					rate = 0.5 * probe.IOPS
				}
				streams := workload.OpenFIO("randwrite", workload.RandWrite, f.Config().LogicalPages(),
					1, b.Threads, perThread(b.Requests, b.Threads), kind, rate, 2221)
				r := measureOpen(f, streams, background)
				c.row(s.String(), modes[c.at[1]], f0(rate), f0(r.IOPS),
					lat(r.MeanLat), lat(r.P99), lat(r.P999), pct(r.WaitShare),
					fmt.Sprint(r.GCCount), fmt.Sprint(r.BGGCCount))
				return nil
			}, nil
		},
	},
	// Crash-recovery time: for every scheme × fill level the device is
	// filled, "loses power" (all DRAM translation state dropped) and
	// remounts by scanning the flash array's out-of-band reverse mappings
	// to rebuild the L2P and GTD (paper Fig. 11 — the OOB carries the
	// reverse mapping precisely so this scan is possible). Mount latency is
	// the timed scan's makespan: each chip reads the OOB of its programmed
	// pages — stale pages included, since staleness is only known after
	// reading — with chips scanning in parallel. The fill phase is a
	// sequential write of the leading fraction of the logical space, so
	// scanned pages grow with fill and the recovery-time-vs-fill curve is
	// the deliverable. Schemes differ through their flash footprints:
	// translation-page maintenance and buffering change how many pages a
	// fill leaves programmed.
	{
		id: "mountlat", desc: "OOB crash-recovery scan latency vs device fill",
		title:  "Mount latency: OOB crash-recovery scan vs device fill (scanned = programmed pages whose OOB the mount read)",
		header: []string{"FTL", "fill", "recovered LPNs", "scanned pages", "mount"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			fills := []float64{0.25, 0.50, 0.75, 1.00}
			schemes := Schemes()
			return []int{len(schemes), len(fills)}, func(c *cell) error {
				s, fillFrac := schemes[c.at[0]], fills[c.at[1]]
				f, err := New(s, cfg)
				if err != nil {
					return err
				}
				fill := int64(float64(f.Config().LogicalPages()) * fillFrac)
				var now nand.Time
				for l := int64(0); l < fill; l += 128 {
					now = f.WritePages(l, int(min(fill-l, 128)), now)
				}
				f.Flash().ResetCounters()
				start := f.Flash().MaxChipBusy()
				done := f.RecoverFromCrash(start)
				mapped := int64(0)
				for _, p := range f.ShadowL2P() {
					if p != nand.InvalidPPN {
						mapped++
					}
				}
				row := []string{s.String(), pct(fillFrac), fmt.Sprint(mapped),
					fmt.Sprint(f.Flash().Counters().Reads[nand.OpMount]), lat(done - start)}
				// With the reliability model on, the scan can lose mappings
				// to uncorrectable OOB reads; surface the count. The column
				// appears only when fault is enabled so fault-free goldens
				// stay byte-identical.
				if cfg.Fault.Enabled {
					row = append(row, fmt.Sprint(f.MountScanStats().LostMappings))
				}
				c.row(row...)
				return nil
			}, nil
		},
		post: func(t *Table, cfg Config, _ Budget, _ []*cell) {
			if cfg.Fault.Enabled {
				t.Header = append(t.Header, "lost maps")
			}
		},
	},
	// The power-loss injection campaign (internal/crash) per scheme: a
	// warmed device is snapshotted, a deterministic write+GC-heavy window
	// is probed uncut, then every enumerated (and fuzzed) flash-operation
	// ordinal through that window is injected as a power cut — completing
	// or tearing the in-flight program — followed by a timed OOB remount
	// and full invariant verification against the durability oracle (acked
	// writes must survive, at most one valid page per LPN, GTD/L2P/allocator
	// consistent with flash). "lost acked" must be 0 and the verdict
	// "clean" for every scheme; Budget.CrashFuzz sizes the campaign.
	{
		id: "crashsweep", desc: "power-loss injection campaign: recovery success, lost acked writes, mount latency",
		title:  "Crash sweep: deterministic power-loss injection through a write+GC window (lost acked must be 0; torn drop = half-programmed pages discarded at mount)",
		header: []string{"FTL", "window ops", "GCs", "points", "fired", "torn cuts", "lost acked", "torn drop", "lost maps", "mount mean", "mount max", "verdict"},
		grid: perScheme(func(c *cell, s Scheme, cfg Config, b Budget) error {
			fuzz := b.CrashFuzz
			if fuzz <= 0 {
				fuzz = 40
			}
			window := max(64, b.Requests/4)
			i := int64(c.at[0])
			f, err := c.warmed(s, cfg)
			if err != nil {
				return err
			}
			snap, err := SnapshotDevice(f)
			if err != nil {
				return err
			}
			lp := f.Config().LogicalPages()
			newRun := func() (crash.Device, []sim.Generator, error) {
				g, err := RestoreDevice(s, cfg, snap)
				if err != nil {
					return nil, nil, err
				}
				return g, crashWindow(lp, window, 3301+i), nil
			}
			res, err := crash.RunCampaign(newRun, crash.CampaignConfig{Fuzz: fuzz, Seed: 9001 + i})
			if err != nil {
				return err
			}
			verdict := "clean"
			if !res.OK() {
				verdict = fmt.Sprintf("DIRTY (%d violations)", len(res.Violations))
			}
			c.row(s.String(), fmt.Sprint(res.WindowOps), fmt.Sprint(res.WindowErases),
				fmt.Sprint(res.Points), fmt.Sprint(res.Fired), fmt.Sprint(res.TornCuts),
				fmt.Sprint(res.LostAcked), fmt.Sprint(res.TornDiscarded),
				fmt.Sprint(res.LostMappings),
				lat(res.MountMean()), lat(res.MountMax), verdict)
			return nil
		}),
	},
	// End-to-end reliability vs raw bit error rate: every scheme runs a
	// mixed open-loop workload (70% reads / 30% writes, idle-gap background
	// GC + scrub active) at each rung of a raw-BER ladder, reporting
	// achieved throughput, tail latency (read retries add timing-class
	// delays), ECC retry traffic, the uncorrectable-bit error rate,
	// scrub-driven refresh traffic and its write amplification.
	{
		id: "faultsweep", desc: "UBER, tails and refresh WA vs raw bit error rate",
		title:  "Fault sweep: reliability vs raw BER, mixed open-loop 70r/30w with background scrub (refresh WA = scrub rewrites per host-written page)",
		header: []string{"FTL", "raw BER", "IOPS", "p99", "p99.9", "retries", "uncorr", "UBER", "refresh pg", "refresh WA", "bad blk"},
		grid:   faultSweepGrid(Schemes()),
	},
	// What background scrub buys: every scheme reads a small hot working
	// set — striped by the sequential fill across every chip's
	// first-written block — open-loop at equal offered load, scrub off vs
	// on. The hot blocks enter the window at-risk (flagged on first read,
	// still correctable) and the retention ramp pushes unscrubbed pages
	// over the ECC threshold mid-window. Off, the back half of the hot
	// reads is host-visible data loss. On, the first reads queue the stripe
	// and the idle-gap scrubber rewrites it in time, so loss collapses to
	// the reads that land after a block turns and before its refresh — at
	// the cost of refresh traffic and scrub interference in the tails. The
	// hot set is deliberately a few blocks' worth: a working set wider than
	// the scrubber's idle-gap bandwidth could never be defended at any
	// rate. LearnedFTL has no block-level scrub path, so its two rows
	// match.
	{
		id: "scrublat", desc: "read-disturb data loss and tails, background scrub off vs on",
		title:  "Scrub latency: hot-set reads of retention-aged blocks, background scrub off vs on (uncorr = host-visible data loss)",
		header: []string{"FTL", "scrub", "offered IOPS", "IOPS", "p99", "p99.9", "uncorr", "UBER", "scrubs", "refresh pg"},
		grid: func(cfg Config, b Budget) ([]int, cellFunc, error) {
			kind, err := b.openLoopKind()
			if err != nil {
				return nil, nil, err
			}
			schemes, modes := Schemes(), []string{"off", "on"}
			return []int{len(schemes), len(modes)}, func(c *cell) error {
				s := schemes[c.at[0]]
				dcfg := cfg
				dcfg.Fault = scrubLatConfig(c.at[1] == 1)
				// Sequential-fill warm only (no random overwrite passes):
				// the hot LPNs must still live in the handful of
				// first-written blocks, not scattered over whatever blocks
				// the overwrite pass left active.
				c.b.WarmExtra = 0
				f, err := c.warmed(s, dcfg)
				if err != nil {
					return err
				}
				hot := min(int64(4*cfg.Geometry.PagesPerBlock), f.Config().LogicalPages())
				per := perThread(b.Requests, b.Threads)
				rate := b.OfferedIOPS
				if rate <= 0 {
					// Rate probe, under the still-benign model: closed-loop
					// reads of the hot set on this very device —
					// deterministic, so the off and on cells derive the same
					// operating point. The tiny fraction is load-bearing:
					// the sequential fill striped the hot LPNs across every
					// chip's first block, so the scrubber must refresh a
					// whole stripe of blocks — around a second of chip time
					// — out of idle gaps before the retention ramp turns
					// them lethal mid-window.
					probe := measure(f, workload.FIO(workload.RandRead, hot, 1, b.Threads, per/2+1, 7))
					rate = 0.008 * probe.IOPS
				}
				// Shelf-bake the device for one window length — every warm
				// write enters the window at-risk but not yet lost (see
				// scrubLatAge) — then swap in the retention ramp anchored
				// to that bake. Physical state (ages, read counts) is
				// untouched; only the clock and the BER mapping change.
				bake := nand.Time(float64(int64(b.Threads)*int64(per)) / rate * float64(nand.Second))
				f.Flash().AdvanceIdle(bake)
				fc := scrubLatAge(dcfg.Fault, cfg, bake)
				f.Flash().SetFaultModel(fault.New(fc, int64(cfg.Geometry.PageSize)*8))
				streams := workload.OpenFIO("hotread", workload.RandRead,
					hot, 1, b.Threads, per, kind, rate, 4447)
				r := measureOpen(f, streams, true)
				c.row(s.String(), modes[c.at[1]], f0(rate), f0(r.IOPS),
					lat(r.P99), lat(r.P999),
					fmt.Sprint(r.Rel.HostUncorrectable), sci(r.UBER),
					fmt.Sprint(r.ScrubCount), fmt.Sprint(r.RefreshPages))
				return nil
			}, nil
		},
	},
	// How simulator cost scales with device size: every scheme on a ladder
	// of geometries from the tiny test device up to the paper's 32 GiB one,
	// reporting the warm-up's simulated programs and host wall clock (the
	// dominant cost of a sweep cell), steady-state random-write IOPS over
	// the measured window, write amplification, and the device model's
	// resident metadata footprint (bytes per physical page and total) that
	// bounds how many cells fit in RAM. Warm-up deliberately bypasses the
	// checkpoint cache — its wall clock is the deliverable, so restoring it
	// would measure the cache instead. The wall-clock column is host time
	// and varies run to run (it includes whatever co-running cells the
	// worker pool scheduled); every other column is deterministic.
	// Budget.ScaleMinGiB/ScaleMaxGiB window the ladder.
	{
		id: "scale", desc: "geometry ladder tiny -> paper: warm-up cost, steady IOPS, model footprint",
		title:  "Scale: geometry ladder tiny -> paper (warm Mpg = simulated warm-up programs, deterministic; warm = host wall clock, contention-prone under -parallel)",
		header: []string{"FTL", "device", "blocks", "meta B/page", "meta MiB", "warm Mpg", "warm", "randwrite IOPS", "WA"},
		grid: func(_ Config, b Budget) ([]int, cellFunc, error) {
			rungs, err := scaleLadder(b)
			if err != nil {
				return nil, nil, err
			}
			schemes := Schemes()
			return []int{len(rungs), len(schemes)}, func(c *cell) error {
				s, rung := schemes[c.at[1]], rungs[c.at[0]]
				f, err := New(s, rung)
				if err != nil {
					return err
				}
				ws := c.warmUp(f)
				r := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
				fp := f.Flash().Footprint()
				c.row(s.String(),
					fmt.Sprintf("%.2fGiB", float64(rung.Geometry.TotalBytes())/(1<<30)),
					fmt.Sprint(rung.Geometry.TotalBlocks()),
					fmt.Sprintf("%.2f", fp.BytesPerPage),
					fmt.Sprintf("%.1f", float64(fp.TotalBytes)/(1<<20)),
					fmt.Sprintf("%.2f", float64(ws.Programs)/1e6),
					fmt.Sprintf("%.2fs", ws.Seconds),
					f0(r.IOPS), f2(r.WriteAmp))
				return nil
			}, nil
		},
	},
	{
		id: "latbreak", desc: "mean and P99.9 latency decomposed by phase, per scheme",
		title:  "Latency attribution: mean and P99.9 decomposed by phase (lookup = DRAM model/CMT compute, trans = translation-page flash, gc = foreground GC stall, data = flash data time)",
		header: []string{"FTL", "pattern", "mean", "lookup", "trans", "gc", "data", "p99.9", "tail mean", "tail cause"},
		grid:   perScheme(latBreakCell),
	},
	{
		id: "fleet", desc: "multi-device array: per-tenant tails and wear CV per placement policy, with mid-run device failure + rebuild",
		title: fmt.Sprintf("Fleet: %d-device LearnedFTL array, two tenants, per placement policy (failure = device 1 killed mid-run; rebuild = re-replicated units done/total)", fleetDevices),
		header: []string{"placement", "scenario", "tenant", "requests", "p99", "p99.9", "wait",
			"wear CV dev", "failed", "lost req", "rebuilt"},
		grid: fleetGrid,
	},
}

// gcSweepGrid is gcsweep's grid over the policies pols: every scheme ×
// policy × rung of the config's OP ladder. The registry sweeps every
// policy; a test that reads one policy's rows runs only that one.
func gcSweepGrid(pols []GCPolicy) func(Config, Budget) ([]int, cellFunc, error) {
	return func(cfg Config, b Budget) ([]int, cellFunc, error) {
		ratios := opLadder(cfg)
		schemes := Schemes()
		return []int{len(schemes), len(pols), len(ratios)}, func(c *cell) error {
			s, pol := schemes[c.at[0]], pols[c.at[1]]
			dcfg := cfg
			dcfg.OPRatio = ratios[c.at[2]]
			dcfg.GCPolicy = pol
			f, err := c.warmed(s, dcfg)
			if err != nil {
				return err
			}
			r := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
			movedPerGC := 0.0
			if col := f.Collector(); col.GCCount > 0 {
				movedPerGC = float64(col.GCPagesMoved) / float64(col.GCCount)
			}
			// The OP column is the effective ratio: LogicalPages rounds
			// down to whole group spans, so two requested ratios can
			// build the same device.
			op := 1 - float64(dcfg.LogicalPages())/float64(dcfg.Geometry.TotalPages())
			c.row(s.String(), string(pol), pct(op),
				f2(r.WriteAmp), fmt.Sprint(r.GCCount), f1(movedPerGC),
				fmt.Sprint(r.Wear.MaxErases), f2(r.Wear.CV), f1(r.LifetimeTBW))
			return nil
		}, nil
	}
}

// faultSweepGrid is faultsweep's grid over the schemes given: each at
// every rung of the raw-BER ladder. The registry runs all five; a test of
// the ladder's shape runs two.
func faultSweepGrid(schemes []Scheme) func(Config, Budget) ([]int, cellFunc, error) {
	return func(cfg Config, b Budget) ([]int, cellFunc, error) {
		kind, err := b.openLoopKind()
		if err != nil {
			return nil, nil, err
		}
		bers := faultBERLadder
		threads := max(2, b.Threads)
		return []int{len(schemes), len(bers)}, func(c *cell) error {
			s, ber := schemes[c.at[0]], bers[c.at[1]]
			dcfg := cfg
			dcfg.Fault = faultSweepConfig(ber, s)
			f, err := c.warmed(s, dcfg)
			if err != nil {
				return err
			}
			rate := b.OfferedIOPS
			if rate <= 0 {
				// Saturation probe on this very device (the gclat
				// idiom): writes are the slow half of the mix, so half
				// the closed-loop randwrite rate lands the whole mix
				// below the knee with idle gaps left for the scrubber.
				// Retries slow the probe too, so the operating point
				// self-scales with the rung's BER.
				probe := measureFIO(f, workload.RandWrite, threads, 1, b.Requests/2)
				rate = 0.5 * probe.IOPS
			}
			spt, per := threads/2, perThread(b.Requests, threads)
			lp := f.Config().LogicalPages()
			streams := append(
				workload.OpenFIO("randread", workload.RandRead, lp, 1, spt, per, kind, 0.7*rate, 3331),
				workload.OpenFIO("randwrite", workload.RandWrite, lp, 1, spt, per, kind, 0.3*rate, 3433)...)
			r := measureOpen(f, streams, true)
			refreshWA := "-"
			if hw := r.Flash.Programs[nand.OpHostData]; hw > 0 {
				refreshWA = f2(float64(r.RefreshPages) / float64(hw))
			}
			c.row(s.String(), sci(ber), f0(r.IOPS), lat(r.P99), lat(r.P999),
				fmt.Sprint(r.Rel.Retries), fmt.Sprint(r.Rel.HostUncorrectable), sci(r.UBER),
				fmt.Sprint(r.RefreshPages), refreshWA, fmt.Sprint(r.GrownBadBlocks))
			return nil
		}, nil
	}
}

// perScheme is the grid of the experiments that measure every scheme once,
// one cell per scheme.
func perScheme(measure func(c *cell, s Scheme, cfg Config, b Budget) error) func(Config, Budget) ([]int, cellFunc, error) {
	return func(cfg Config, b Budget) ([]int, cellFunc, error) {
		schemes := Schemes()
		return []int{len(schemes)}, func(c *cell) error {
			return measure(c, schemes[c.at[0]], cfg, b)
		}, nil
	}
}

// filebenchKinds are the Filebench personalities of Figs. 7 and 20.
var filebenchKinds = []workload.FilebenchKind{workload.Fileserver, workload.Webserver, workload.Varmail}

// filebenchRun measures one Filebench personality on a warmed device.
func filebenchRun(f FTL, k workload.FilebenchKind, b Budget) stats.Report {
	th := k.Threads()
	gens := workload.Filebench(k, f.Config().LogicalPages(), th, perThread(b.Requests, th), 23)
	return measure(f, gens)
}

func rate(n int64, span nand.Time) float64 {
	if span <= 0 {
		return 0
	}
	return float64(n) / (float64(span) / float64(nand.Second))
}

// traceSchemes are the FTLs of the tail-latency and energy evaluations.
func traceSchemes() []Scheme {
	return []Scheme{SchemeTPFTL, SchemeLeaFTL, SchemeLearnedFTL, SchemeIdeal}
}

// traceGrid is the grid of Figs. 21 and 22: every (trace × scheme) pair
// replayed on its own warmed device.
func traceGrid(cfg Config, b Budget) ([]int, cellFunc, error) {
	specs, schemes := workload.Traces(), traceSchemes()
	return []int{len(specs), len(schemes)}, func(c *cell) error {
		f, err := c.warmed(schemes[c.at[1]], cfg)
		if err != nil {
			return err
		}
		gens := specs[c.at[0]].Generators(f.Config().LogicalPages(), 4, b.TraceScale)
		c.reports = append(c.reports, measure(f, gens))
		return nil
	}, nil
}

// traceRows builds one row per trace from traceGrid's cells: the trace name
// followed by cols of its schemes' reports, in traceSchemes order.
func traceRows(cells []*cell, cols func(reps []stats.Report) []string) [][]string {
	n := len(traceSchemes())
	var rows [][]string
	for ti, spec := range workload.Traces() {
		reps := make([]stats.Report, n)
		for si := range reps {
			reps[si] = cells[ti*n+si].reports[0]
		}
		rows = append(rows, append([]string{spec.Name}, cols(reps)...))
	}
	return rows
}

// loadSweepFractions is the offered-load ladder of the loadsweep
// experiment, as fractions of idealRandReadIOPS. It brackets every
// scheme's saturation knee: the last rungs exceed what even the ideal FTL
// sustains, so the hockey stick is always visible.
var loadSweepFractions = []float64{0.10, 0.20, 0.35, 0.50, 0.65, 0.80, 1.00, 1.20}

// opLadder returns the over-provisioning ratios gcsweep measures: the
// device config's own ratio plus three increments, clipped below the 0.5
// validation bound (the ladder ascends so every scheme — including
// LearnedFTL's row-hungry group allocator — constructs at every rung).
func opLadder(cfg Config) []float64 {
	var out []float64
	for _, d := range []float64{0, 0.04, 0.08, 0.12} {
		if r := cfg.OPRatio + d; r < 0.5 {
			out = append(out, r)
		}
	}
	return out
}

// crashWindow returns crashsweep's measurement window: seeded random
// single-page overwrites with a trim every 41st request — write- and
// GC-heavy on a warmed device — freshly constructed per call so every
// campaign replay issues the identical request sequence.
func crashWindow(lp int64, n int, seed int64) []sim.Generator {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	return []sim.Generator{sim.GenFunc(func() (sim.Request, bool) {
		if i >= n {
			return sim.Request{}, false
		}
		i++
		lpn := rng.Int63n(lp)
		if i%41 == 0 {
			return sim.Request{Trim: true, LPN: lpn, Pages: 1}, true
		}
		return sim.Request{Write: true, LPN: lpn, Pages: 1}, true
	})}
}

// scaledPaperConfig returns the paper configuration at ScaledGeometry(scale)
// — the paper's 64-chip layout with the per-plane block count divided by
// scale — raising the over-provisioning ratio just far enough that
// LearnedFTL's group allocator (the scheme with the tightest row budget)
// still constructs. Small rungs have so few superblock rows that the
// paper's 8% OP leaves no spare rows for groups plus the GC reserve; the
// probe ladder mirrors the hand-tuning QuickConfig documents.
func scaledPaperConfig(scale int) (Config, error) {
	cfg := ftl.DefaultConfig(nand.ScaledGeometry(scale))
	for _, op := range []float64{cfg.OPRatio, 0.15, 0.22, 0.30, 0.38, 0.45} {
		cfg.OPRatio = op
		// core.SpareRows is the same row-budget arithmetic the LearnedFTL
		// constructor runs: negative means it rejects the config, and with
		// fewer than a couple of spare superblock rows beyond the GC
		// reserve the group allocator can never extend a group and
		// degenerates into GC-per-write. Small rungs need the
		// over-provisioning to buy that slack (the same adaptation
		// QuickConfig documents).
		if core.SpareRows(cfg) >= 2 {
			return cfg, nil
		}
	}
	return cfg, fmt.Errorf("learnedftl: no workable over-provisioning for %s", cfg.Geometry)
}

// scaleLadder assembles the scale experiment's geometry rungs: the two
// vetted small devices (tiny, quick) and the paper geometry at shrinking
// block-count divisors up to the full 32 GiB device, windowed by the
// budget's [ScaleMinGiB, ScaleMaxGiB]. Rungs outside the window are
// filtered on geometry alone, before any feasibility probing.
func scaleLadder(b Budget) ([]Config, error) {
	lo, hi := b.ScaleMinGiB, b.ScaleMaxGiB
	if hi <= 0 {
		hi = 2
	}
	inWindow := func(g nand.Geometry) bool {
		gib := float64(g.TotalBytes()) / (1 << 30)
		return gib >= lo-1e-9 && gib <= hi+1e-9
	}
	var out []Config
	for _, cfg := range []Config{TinyConfig(), QuickConfig()} {
		if inWindow(cfg.Geometry) {
			out = append(out, cfg)
		}
	}
	for _, scale := range []int{16, 8, 4, 2, 1} {
		if !inWindow(nand.ScaledGeometry(scale)) {
			continue
		}
		cfg, err := scaledPaperConfig(scale)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("learnedftl: scale ladder window [%v, %v] GiB matches no rung", lo, hi)
	}
	return out, nil
}

// faultBERLadder is the faultsweep raw-BER ladder. The rungs bracket the
// default ECC strength (40 bits over a 4KB codeword, two retry steps at
// x0.5): the low rungs correct cleanly, the middle ones climb the retry
// ladder, and the top rungs defeat it, so UBER rises monotonically from
// zero to saturation.
var faultBERLadder = []float64{1e-4, 1e-3, 3e-3, 6e-3, 1e-2}

// faultSweepConfig is one faultsweep rung: the default reliability model
// with the raw BER pinned and background scrub enabled. Program/erase
// failure injection (the bad-block column) is only wired for the
// Base-embedding schemes; LearnedFTL's group-granular FTL supports the
// read-path model alone and rejects grown-defect injection.
func faultSweepConfig(ber float64, s Scheme) fault.Config {
	fc := fault.Default()
	fc.Enabled = true
	fc.BaseBER = ber
	fc.Scrub = true
	if s != SchemeLearnedFTL {
		fc.ProgramFailProb = 2e-4
		fc.EraseFailProb = 2e-3
	}
	return fc
}

// scrubLatConfig is scrublat's initial reliability model: a clean base BER
// with no retry ladder (the ECC threshold alone separates correctable from
// data loss) and a scrub threshold at 60% of it. The warm-up and the rate
// probe run under this benign model — nothing flags, nothing fails.
// Retention aging is installed per cell after the post-warm shelf bake —
// see scrubLatAge.
func scrubLatConfig(scrub bool) fault.Config {
	fc := fault.Default()
	fc.Enabled = true
	fc.Scrub = scrub
	fc.BaseBER = 2e-4
	fc.WearBER = 0
	fc.RetentionBERPerSec = 0
	fc.DisturbBER = 0
	fc.RetrySteps = 0
	fc.ScrubAtFraction = 0.6
	return fc
}

// scrubLatAge returns scrubLatConfig with a retention ramp anchored to the
// shelf bake, calibrated against the ECC threshold (lethal = the BER that
// is uncorrectable even at the minimum jitter draw):
//
//   - A page that sat through the bake enters the measured window at
//     0.7·lethal — above the 0.6·lethal scrub flag (its first read queues
//     the block for refresh) but below uncorrectable at any jitter draw.
//     Nothing is lost yet; everything warm-written is at risk.
//   - The ramp keeps running during the window. With the bake set to the
//     window's own length, unscrubbed pages cross certain-lethal at ~54%
//     of the window: scrub off, the back half of the hot reads is data
//     loss. Scrub on, a refreshed page restarts from BaseBER and cannot
//     climb back past even the flag point before the run ends.
func scrubLatAge(fc fault.Config, cfg Config, bake nand.Time) fault.Config {
	cwBits := float64(cfg.Geometry.PageSize) * 8
	lethal := fault.ECCBits / (cwBits * fault.JitterFloor) // uncorrectable even at minimum jitter
	secs := float64(bake) / float64(nand.Second)
	if secs > 0 {
		fc.RetentionBERPerSec = (0.7*lethal - fc.BaseBER) / secs
	}
	return fc
}
