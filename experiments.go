package learnedftl

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"learnedftl/internal/core"
	"learnedftl/internal/crash"
	"learnedftl/internal/fault"
	"learnedftl/internal/ftl"
	"learnedftl/internal/gc"
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
	// ShardWorkers parallelizes the intra-run engine itself: warm-up (and
	// any caller of sim.RunSharded) shards the flash reads per chip across
	// this many workers, with translation decisions barriered so results
	// stay byte-identical at any value. <= 1 keeps the engine sequential.
	// Unlike Workers — which fans independent cells out — this speeds up
	// a SINGLE long run, e.g. a paper-scale warm-up that misses the
	// checkpoint cache.
	ShardWorkers int `json:"shard_workers,omitempty"`

	// Open-loop knobs (loadsweep / tenantmix). OfferedIOPS fixes the
	// total offered arrival rate in requests per virtual second; 0 derives
	// loadsweep's rate ladder and tenantmix's operating point from the
	// device's ideal random-read capability at the run's concurrency.
	OfferedIOPS float64 `json:"offered_iops,omitempty"`
	// Arrival selects the open-loop arrival process: "poisson" (default)
	// or "fixed".
	Arrival string `json:"arrival,omitempty"`
	// ReadTenantShare splits tenantmix's offered load between the
	// WebSearch read tenant and the Systor write tenant (default 0.7).
	ReadTenantShare float64 `json:"read_tenant_share,omitempty"`

	// GC-experiment knobs (gcsweep / gclat). GCPolicies is a
	// comma-separated subset of the victim-selection policies to sweep
	// ("" = all of greedy, costbenefit, costage). OPRatio narrows
	// gcsweep's over-provisioning ladder to a single ratio (0 = derive a
	// ladder upward from the device config's ratio).
	GCPolicies string  `json:"gc_policies,omitempty"`
	OPRatio    float64 `json:"op_ratio,omitempty"`

	// Fault-experiment knobs (faultsweep / scrublat). FaultBER narrows
	// faultsweep's raw-BER ladder to a single rung (0 = the full ladder)
	// and FaultSchemes comma-selects the schemes swept ("" = all five) —
	// both exist so a CI smoke cell can pin one rung and two schemes.
	FaultBER     float64 `json:"fault_ber,omitempty"`
	FaultSchemes string  `json:"fault_schemes,omitempty"`

	// Fleet-experiment knobs. FleetDevices is the array width (0 = 8),
	// FleetPlacement comma-selects the placement policies swept ("" = all
	// three) and FleetReplicas the replication copy count (0 = 2) — the
	// narrowing knobs exist so a CI smoke cell can pin a 4-device array
	// and two policies.
	FleetDevices   int    `json:"fleet_devices,omitempty"`
	FleetPlacement string `json:"fleet_placement,omitempty"`
	FleetReplicas  int    `json:"fleet_replicas,omitempty"`

	// Crash-experiment knobs (crashsweep). CrashFuzz is the number of
	// seeded random crash points injected per scheme on top of the
	// enumeration (0 = 40; the root acceptance test raises the total past
	// 200 across the five schemes). CrashStride enumerates every
	// CrashStride-th flash-operation ordinal through the window (0 =
	// derive a stride that enumerates ~24 ordinals, each injected twice:
	// completing and tearing the fatal program).
	CrashFuzz   int   `json:"crash_fuzz,omitempty"`
	CrashStride int64 `json:"crash_stride,omitempty"`

	// Scale-experiment knobs. The scale experiment climbs a geometry
	// ladder from the tiny device up to the paper's 32 GiB one;
	// ScaleMaxGiB caps the ladder (0 = a 2 GiB default that keeps quick
	// runs quick; PaperBudget raises it to the full 32) and ScaleMinGiB
	// cuts the lower rungs off, so a CI smoke cell can pin one mid-size
	// rung with min == max.
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

	// warm, when set by RunExperiments, accumulates the cold warm-up cost
	// of every cell (simulated programs over wall clock) so the BENCH
	// trajectory tracks warm-up throughput — the number ShardWorkers
	// optimizes. obs likewise accumulates latbreak's per-cell phase
	// breakdowns, and fleet the fleet experiment's per-cell array-level
	// aggregates, for the BENCH JSON.
	warm  *warmAccum
	obs   *obsAccum
	fleet *fleetAccum
}

// WarmStats summarizes one device warm-up: deterministic simulated cost
// (flash programs, virtual span, host requests) over host wall clock, and
// the intra-run shard workers used.
type WarmStats struct {
	Programs int64     // flash programs simulated during warm-up
	Requests int64     // host requests the warm-up issued
	Span     nand.Time // virtual time the warm-up covered
	Seconds  float64   // host wall clock
	Workers  int       // shard workers used by the intra-run engine
}

// warmAccum sums WarmStats across an experiment's cells (cells run on the
// budget's worker pool, so the add is locked).
type warmAccum struct {
	mu       sync.Mutex
	programs int64
	seconds  float64
	workers  int
}

func (a *warmAccum) add(w WarmStats) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.programs += w.Programs
	a.seconds += w.Seconds
	a.workers = w.Workers
	a.mu.Unlock()
}

func (a *warmAccum) snapshot() (programs int64, seconds float64, workers int) {
	if a == nil {
		return 0, 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.programs, a.seconds, a.workers
}

// gcPolicyList resolves the budget's policy subset, erroring on typos so a
// misspelled policy never silently collapses the sweep.
func (b Budget) gcPolicyList() ([]gc.Kind, error) {
	if b.GCPolicies == "" {
		return gc.Kinds(), nil
	}
	var out []gc.Kind
	for _, s := range strings.Split(b.GCPolicies, ",") {
		name := strings.TrimSpace(s)
		// An empty element (trailing or doubled comma) is a typo, not a
		// request for the default policy.
		k, ok := gc.ParseKind(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("learnedftl: unknown GC policy %q (want one of %v)",
				name, gc.Kinds())
		}
		out = append(out, k)
	}
	return out, nil
}

// faultSchemeList resolves the budget's scheme subset for the fault
// experiments, erroring on typos so a misspelled scheme never silently
// collapses the sweep.
func (b Budget) faultSchemeList() ([]Scheme, error) {
	if b.FaultSchemes == "" {
		return Schemes(), nil
	}
	var out []Scheme
	for _, s := range strings.Split(b.FaultSchemes, ",") {
		name := strings.TrimSpace(s)
		found := false
		for _, sch := range Schemes() {
			if strings.EqualFold(sch.String(), name) {
				out = append(out, sch)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("learnedftl: unknown scheme %q (want a subset of %v)",
				name, Schemes())
		}
	}
	return out, nil
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
// (done, total).
func runCells(b Budget, n int, cell func(i int) error) error {
	if b.Progress == nil {
		return sweep.Run(b.Workers, sweep.Tasks(n, cell))
	}
	var done atomic.Int64
	return sweep.Run(b.Workers, sweep.Tasks(n, func(i int) error {
		err := cell(i)
		b.Progress(int(done.Add(1)), n)
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

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
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

// warmKey identifies a warm checkpoint: the device identity plus the
// warm-up spec (the settle phase is derived from the config, so WarmExtra
// is the only free parameter). The leading tag versions the warm-up recipe
// itself — change warmDevice, bump the tag.
func warmKey(s Scheme, cfg Config, extra int) string {
	return fmt.Sprintf("warm1|extra=%d|%s", extra, persistKey(s.String(), cfg))
}

// newWarmed builds a scheme's device and brings it to the paper's steady
// state: a sequential fill plus Budget.WarmExtra capacities of 512KB
// random overwrites (§IV-B), with metrics reset afterwards. With
// Budget.Checkpoints set, a cached warm snapshot restores the device
// instead — bit-exact, so downstream measurement is unchanged — and a cold
// warm-up stores its snapshot for the next cell or run.
func newWarmed(s Scheme, cfg Config, b Budget) (FTL, error) {
	if b.Checkpoints == nil {
		f, err := New(s, cfg)
		if err != nil {
			return nil, err
		}
		warmDevice(f, b)
		return f, nil
	}
	key := warmKey(s, cfg, b.WarmExtra)
	if data, ok := b.Checkpoints.Load(key); ok {
		f, err := New(s, cfg)
		if err != nil {
			return nil, err
		}
		if dev, devOK := f.(persist.Device); devOK {
			if err := persist.Restore(dev, key, data); err == nil {
				// The restored lifetime program count is exactly the
				// warm-up work this hit avoided re-simulating.
				life := f.Flash().LifetimeCounters()
				b.Checkpoints.NoteRestored(life.TotalPrograms())
				return f, nil
			}
		}
		// Corrupt or stale (format bump): counts as a miss; fall through
		// to a cold warm-up, which overwrites the entry.
		b.Checkpoints.NoteUnusable()
	}
	f, err := New(s, cfg)
	if err != nil {
		return nil, err
	}
	warmDevice(f, b)
	if dev, devOK := f.(persist.Device); devOK {
		b.Checkpoints.Store(key, persist.Snapshot(dev, key))
	}
	return f, nil
}

func warmDevice(f FTL, b Budget) WarmStats {
	start := time.Now()
	lifeBefore := f.Flash().LifetimeCounters()
	before := lifeBefore.TotalPrograms()
	w := b.ShardWorkers
	if w < 1 {
		w = 1
	}
	lp := f.Config().LogicalPages()
	r1, _ := sim.WarmedSharded(f, workload.Warmup(lp, b.WarmExtra, 128, 1), 0, w)
	// Settle the mapping caches: the write warm-up leaves them full of
	// dirty entries whose one-time write-back would otherwise dominate a
	// short measured window (the paper's multi-minute runs amortize this).
	settle := 2 * f.Config().CMTEntries()
	r2, _ := sim.WarmedSharded(f, workload.FIO(workload.RandRead, lp, 1, 16, settle/16+1, 977), 0, w)
	lifeAfter := f.Flash().LifetimeCounters()
	ws := WarmStats{
		Programs: lifeAfter.TotalPrograms() - before,
		Requests: r1.Requests + r2.Requests,
		Span:     r1.Makespan() + r2.Makespan(),
		Seconds:  time.Since(start).Seconds(),
		Workers:  w,
	}
	b.warm.add(ws)
	return ws
}

// measure runs generators on a (typically warmed) device and summarizes.
func measure(f FTL, gens []sim.Generator) stats.Report {
	f.Collector().Reset()
	f.Flash().ResetCounters()
	res := sim.Run(f, gens, 0)
	return report(f, res)
}

// report freezes a run into a stats.Report with the device's wear view and
// model footprint attached.
func report(f FTL, res sim.Result) stats.Report {
	cfg := f.Config()
	r := stats.BuildReport(f.Name(), f.Collector(), f.Flash().Counters(),
		res.Makespan(), cfg.Geometry.PageSize, cfg.Energy)
	r.AddWear(f.Flash().Wear(), cfg.BlockEndurance, cfg.Geometry.TotalBytes())
	r.AddFootprint(f.Flash().Footprint())
	r.AddReliability(f.Flash().RelCounters(), f.Flash().BadBlocks(), cfg.Geometry.PageSize)
	return r
}

// measureFIO measures one FIO pattern.
func measureFIO(f FTL, p workload.Pattern, threads, ioPages, total int) stats.Report {
	per := total / threads
	if per < 1 {
		per = 1
	}
	gens := workload.FIO(p, f.Config().LogicalPages(), ioPages, threads, per, 7)
	return measure(f, gens)
}

// measureOpen runs open-loop streams on a (typically warmed) device and
// summarizes, including the queue-wait decomposition and per-tenant
// breakdown RunOpen records.
func measureOpen(f FTL, streams []sim.Stream) stats.Report {
	return measureOpenWith(f, streams, false)
}

// measureOpenWith is measureOpen with idle-gap background GC toggleable.
func measureOpenWith(f FTL, streams []sim.Stream, backgroundGC bool) stats.Report {
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
	conc := streams
	if ch := cfg.Geometry.Chips(); conc > ch {
		conc = ch
	}
	if conc < 1 {
		conc = 1
	}
	return float64(conc) * float64(nand.Second) / float64(cfg.Timing.ReadLatency)
}

// loadSweepFractions is the offered-load ladder of the loadsweep
// experiment, as fractions of idealRandReadIOPS. It brackets every
// scheme's saturation knee: the last rungs exceed what even the ideal FTL
// sustains, so the hockey stick is always visible.
var loadSweepFractions = []float64{0.10, 0.20, 0.35, 0.50, 0.65, 0.80, 1.00, 1.20}

// LoadSweep measures the latency-vs-offered-load curve of every scheme:
// open-loop random reads at a ladder of offered IOPS, reporting achieved
// throughput, mean/P99/P99.9 total latency and the share of latency spent
// in the arrival queue. Each (scheme × rate) pair is one hermetic sweep
// cell. Budget.OfferedIOPS > 0 narrows the ladder to that single rate;
// Budget.Arrival picks the arrival process (Poisson by default).
func LoadSweep(cfg Config, b Budget) (Table, error) {
	threads := b.Threads
	if threads < 1 {
		threads = 1
	}
	rates := make([]float64, 0, len(loadSweepFractions))
	if b.OfferedIOPS > 0 {
		rates = append(rates, b.OfferedIOPS)
	} else {
		base := idealRandReadIOPS(cfg, threads)
		for _, fr := range loadSweepFractions {
			rates = append(rates, fr*base)
		}
	}
	kind, err := b.openLoopKind()
	if err != nil {
		return Table{}, err
	}
	schemes := Schemes()
	rows := make([][]string, len(schemes)*len(rates))
	err = runCells(b, len(rows), func(i int) error {
		si, ri := i/len(rates), i%len(rates)
		f, err := newWarmed(schemes[si], cfg, b)
		if err != nil {
			return err
		}
		per := b.Requests / threads
		if per < 1 {
			per = 1
		}
		streams := workload.OpenFIO("randread", workload.RandRead,
			f.Config().LogicalPages(), 1, threads, per, kind, rates[ri], 1117)
		r := measureOpen(f, streams)
		rows[i] = []string{
			schemes[si].String(), f0(rates[ri]), f0(r.IOPS),
			lat(r.MeanLat), lat(r.P99), lat(r.P999), pct(r.WaitShare),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Load sweep: open-loop randread latency vs offered IOPS (wait = share of latency spent queued)",
		Header: []string{"FTL", "offered IOPS", "achieved IOPS", "mean", "p99", "p99.9", "wait"},
		Rows:   rows,
	}, nil
}

// TenantMixExp measures two rate-controlled tenants sharing one device —
// WebSearch-like reads and Systor-like write-heavy traffic — reporting
// per-tenant mean/P99/P99.9 latency and queue-wait share for every
// scheme. Budget.OfferedIOPS overrides the combined operating point
// (default: a quarter of the device's ideal page rate, converted to a
// request rate through the mix's mean request size) and
// Budget.ReadTenantShare splits it (default 70% to the read tenant).
func TenantMixExp(cfg Config, b Budget) (Table, error) {
	kind, err := b.openLoopKind()
	if err != nil {
		return Table{}, err
	}
	share := b.ReadTenantShare
	if share == 0 {
		share = 0.7
	} else if share < 0 || share >= 1 {
		return Table{}, fmt.Errorf("learnedftl: tenantmix read-tenant share %v out of (0, 1)", share)
	}
	total := b.OfferedIOPS
	if total <= 0 {
		// Default operating point: a quarter of the device's ideal page
		// rate, converted to a request rate via the mix's mean request
		// size. That lands below the slowest scheme's knee, so the table
		// differentiates tenants by moderate queueing rather than placing
		// every scheme in deep overload.
		wsPages := workload.WebSearch1.AvgKB * 1024 / float64(cfg.Geometry.PageSize)
		sysPages := workload.Systor17.AvgKB * 1024 / float64(cfg.Geometry.PageSize)
		mixPages := share*wsPages + (1-share)*sysPages
		total = 0.25 * idealRandReadIOPS(cfg, b.Threads) / mixPages
	}
	spt := b.Threads / 2
	if spt < 1 {
		spt = 1
	}
	perTenant := b.Requests / 2
	if perTenant < spt {
		perTenant = spt
	}
	schemes := Schemes()
	const tenants = 2
	rows := make([][]string, len(schemes)*tenants)
	err = runCells(b, len(schemes), func(i int) error {
		f, err := newWarmed(schemes[i], cfg, b)
		if err != nil {
			return err
		}
		streams := workload.TenantMix(f.Config().LogicalPages(), spt, perTenant,
			kind, total*share, total*(1-share))
		r := measureOpen(f, streams)
		offered := []float64{total * share, total * (1 - share)}
		for j, sr := range r.Streams {
			if j >= tenants {
				break
			}
			rows[i*tenants+j] = []string{
				schemes[i].String(), sr.Name, f0(offered[j]),
				fmt.Sprint(sr.Requests), lat(sr.MeanLat), lat(sr.P99), lat(sr.P999),
				pct(sr.WaitShare),
			}
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Tenant mix: WebSearch reads + Systor writes sharing one device (per-tenant open-loop latency)",
		Header: []string{"FTL", "tenant", "offered IOPS", "requests", "mean", "p99", "p99.9", "wait"},
		Rows:   rows,
	}, nil
}

// Fig2 reproduces the motivation experiment: TPFTL sequential vs random read
// throughput and CMT hit ratio as the thread count grows. Each thread count
// is one sweep cell measuring a freshly warmed device, so cells are
// independent and the table is identical at any worker count.
func Fig2(cfg Config, b Budget) (Table, error) {
	threads := []int{1, 16, 32, 64}
	type cell struct{ seq, rnd stats.Report }
	res := make([]cell, len(threads))
	err := runCells(b, len(threads), func(i int) error {
		f, err := newWarmed(SchemeTPFTL, cfg, b)
		if err != nil {
			return err
		}
		res[i].seq = measureFIO(f, workload.SeqRead, threads[i], 8, b.Requests)
		res[i].rnd = measureFIO(f, workload.RandRead, threads[i], 1, b.Requests)
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Fig 2: TPFTL read performance vs threads (seq uses 8-page I/O, rand 1-page)",
		Header: []string{"threads", "seqread MB/s", "randread MB/s", "seq CMT hit", "rand CMT hit"},
	}
	for i, th := range threads {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(th), f1(res[i].seq.ReadMBps), f1(res[i].rnd.ReadMBps),
			pct(res[i].seq.CMTHitRatio), pct(res[i].rnd.CMTHitRatio),
		})
	}
	return t, nil
}

// Fig3 reproduces the CMT-scaling experiment: TPFTL's random-read hit ratio
// barely improves even with a CMT holding 50% of all mappings.
func Fig3(cfg Config, b Budget) (Table, error) {
	ratios := []float64{0.001, 0.03, 0.10, 0.30, 0.50}
	res := make([]stats.Report, len(ratios))
	err := runCells(b, len(ratios), func(i int) error {
		c := cfg
		c.CMTRatio = ratios[i]
		f, err := newWarmed(SchemeTPFTL, c, b)
		if err != nil {
			return err
		}
		res[i] = measureFIO(f, workload.RandRead, b.Threads, 1, b.Requests)
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Fig 3: TPFTL CMT hit ratio vs CMT space (randread, 64 threads)",
		Header: []string{"CMT space", "hit ratio"},
	}
	for i, ratio := range ratios {
		t.Rows = append(t.Rows, []string{pct(ratio), pct(res[i].CMTHitRatio)})
	}
	return t, nil
}

// Fig6 reproduces the LeaFTL motivation: random-read throughput normalized
// to TPFTL, and LeaFTL's single/double/triple read breakdown.
func Fig6(cfg Config, b Budget) (Table, error) {
	schemes := []Scheme{SchemeTPFTL, SchemeLeaFTL}
	res := make([]stats.Report, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		f, err := newWarmed(schemes[i], cfg, b)
		if err != nil {
			return err
		}
		res[i] = measureFIO(f, workload.RandRead, b.Threads, 1, b.Requests)
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	rTP, rLE := res[0], res[1]
	t := Table{
		Title:  "Fig 6: LeaFTL vs TPFTL under FIO random reads",
		Header: []string{"FTL", "MB/s", "norm vs TPFTL", "single", "double", "triple"},
	}
	for _, r := range []stats.Report{rLE, rTP} {
		t.Rows = append(t.Rows, []string{
			r.FTL, f1(r.ReadMBps), f2(r.ReadMBps / rTP.ReadMBps),
			pct(r.SingleFrac), pct(r.DoubleFrac), pct(r.TripleFrac),
		})
	}
	return t, nil
}

// filebenchRun measures one Filebench personality on a warmed device.
func filebenchRun(f FTL, k workload.FilebenchKind, b Budget) stats.Report {
	th := k.Threads()
	per := b.Requests / th
	if per < 1 {
		per = 1
	}
	gens := workload.Filebench(k, f.Config().LogicalPages(), th, per, 23)
	return measure(f, gens)
}

// Fig7 reproduces the locality motivation: TPFTL vs LeaFTL on Filebench,
// plus the webserver hit-ratio comparison.
func Fig7(cfg Config, b Budget) (Table, error) {
	schemes := []Scheme{SchemeTPFTL, SchemeLeaFTL}
	kinds := []workload.FilebenchKind{workload.Fileserver, workload.Webserver, workload.Varmail}
	// One cell per scheme; the three personalities run back-to-back on that
	// cell's device, as the paper's successive Filebench runs do.
	res := make([][]stats.Report, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		f, err := newWarmed(schemes[i], cfg, b)
		if err != nil {
			return err
		}
		res[i] = make([]stats.Report, len(kinds))
		for j, k := range kinds {
			res[i][j] = filebenchRun(f, k, b)
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Fig 7: TPFTL vs LeaFTL on Filebench (throughput norm. to TPFTL; hit = single-read fraction)",
		Header: []string{"workload", "LeaFTL norm", "TPFTL norm", "LeaFTL single", "TPFTL single"},
	}
	for j, k := range kinds {
		rTP, rLE := res[0][j], res[1][j]
		den := rTP.ReadMBps + rTP.WriteMBps
		num := rLE.ReadMBps + rLE.WriteMBps
		t.Rows = append(t.Rows, []string{
			k.String(), f2(num / den), "1.00",
			pct(rLE.SingleFrac),
			pct(rTP.SingleFrac),
		})
	}
	return t, nil
}

// Fig14 reproduces the headline FIO comparison: throughput for four access
// patterns, hit ratios for reads and write amplification for writes, across
// all five FTLs.
func Fig14(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title: "Fig 14: FIO at 64 threads (throughput MB/s; CMT+model hit; WA)",
		Header: []string{"FTL", "randread", "seqread", "randwrite", "seqwrite",
			"rr CMT", "rr model", "sr CMT", "sr model", "WA rand", "WA seq"},
	}
	schemes := Schemes()
	rows := make([][]string, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		s := schemes[i]
		f, err := newWarmed(s, cfg, b)
		if err != nil {
			return err
		}
		rr := measureFIO(f, workload.RandRead, b.Threads, 1, b.Requests)
		sr := measureFIO(f, workload.SeqRead, b.Threads, 8, b.Requests)
		rw := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
		sw := measureFIO(f, workload.SeqWrite, b.Threads, 8, b.Requests)
		rows[i] = []string{
			s.String(),
			f1(rr.ReadMBps), f1(sr.ReadMBps), f1(rw.WriteMBps), f1(sw.WriteMBps),
			pct(rr.CMTHitRatio), pct(rr.ModelHitRatio),
			pct(sr.CMTHitRatio), pct(sr.ModelHitRatio),
			f2(rw.WriteAmp), f2(sw.WriteAmp),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// Fig15 measures the real host-CPU cost of the three added operations —
// LPN sorting, model training and model prediction — on a full 512-entry
// GTD entry, mirroring the paper's X86/ARM microbenchmark.
func Fig15() (Table, error) {
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
	t := Table{
		Title:  "Fig 15: computing overhead of the added operations (host CPU; paper: ~50µs sort+train, 0.65µs predict on ARM A72)",
		Header: []string{"operation", "cost/entry"},
		Rows: [][]string{
			{"sorting (512 LPNs)", sortCost.String()},
			{"training (512-entry model)", trainCost.String()},
			{"prediction", predictCost.String()},
		},
	}
	return t, nil
}

// Fig16 reproduces the GC-frequency comparison under FIO random and
// sequential writes.
func Fig16(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Fig 16: GC activity under FIO writes (count; mean GCs per simulated second)",
		Header: []string{"FTL", "rand GCs", "rand GC/s", "seq GCs", "seq GC/s"},
	}
	schemes := Schemes()
	rows := make([][]string, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		s := schemes[i]
		f, err := newWarmed(s, cfg, b)
		if err != nil {
			return err
		}
		rw := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
		randGC := f.Collector().GCCount
		randRate := rate(randGC, rw.Makespan)
		sw := measureFIO(f, workload.SeqWrite, b.Threads, 8, b.Requests)
		seqGC := f.Collector().GCCount
		seqRate := rate(seqGC, sw.Makespan)
		rows[i] = []string{
			s.String(), fmt.Sprint(randGC), f2(randRate), fmt.Sprint(seqGC), f2(seqRate),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

func rate(n int64, span nand.Time) float64 {
	if span <= 0 {
		return 0
	}
	return float64(n) / (float64(span) / float64(nand.Second))
}

// Fig17 reproduces the GC-time breakdown: the share of LearnedFTL's GC time
// spent on sorting + training, across increasing run lengths.
func Fig17(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Fig 17: sorting+training share of LearnedFTL GC time (paper: <= 3.2%)",
		Header: []string{"randwrite requests", "GC busy", "sort+train", "share"},
	}
	mults := []float64{0.5, 1, 2}
	rows := make([][]string, len(mults))
	err := runCells(b, len(mults), func(i int) error {
		mult := mults[i]
		f, err := newWarmed(SchemeLearnedFTL, cfg, b)
		if err != nil {
			return err
		}
		measureFIO(f, workload.RandWrite, b.Threads, 1, int(float64(b.Requests)*mult))
		col := f.Collector()
		share := 0.0
		if col.GCBusyTime > 0 {
			share = float64(col.SortTrainNS) / float64(col.GCBusyTime)
		}
		rows[i] = []string{
			fmt.Sprint(int(float64(b.Requests) * mult)),
			ms(col.GCBusyTime), ms(nand.Time(col.SortTrainNS)),
			fmt.Sprintf("%.2f%%", share*100),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// Fig18 reproduces the overhead ablations: (a) random-write throughput with
// and without the training+sorting charge, (b) read throughput of
// LearnedFTL vs "ideal LearnedFTL" (no prediction cost, full DRAM map).
func Fig18(cfg Config, b Budget) (Table, error) {
	runWrite := func(charge bool) (float64, error) {
		opt := DefaultLearnedOptions()
		opt.ChargeTraining = charge
		f, err := NewLearned(cfg, opt)
		if err != nil {
			return 0, err
		}
		warmDevice(f, b)
		r := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
		return r.WriteMBps, nil
	}
	runRead := func(predictCost nand.Time, p workload.Pattern, io int) (float64, error) {
		opt := DefaultLearnedOptions()
		opt.PredictCost = predictCost
		f, err := NewLearned(cfg, opt)
		if err != nil {
			return 0, err
		}
		warmDevice(f, b)
		r := measureFIO(f, p, b.Threads, io, b.Requests)
		return r.ReadMBps, nil
	}
	// The six ablation runs are independent devices: one cell each.
	cells := []func() (float64, error){
		func() (float64, error) { return runWrite(true) },
		func() (float64, error) { return runWrite(false) },
		func() (float64, error) { return runRead(DefaultLearnedOptions().PredictCost, workload.RandRead, 1) },
		func() (float64, error) { return runRead(0, workload.RandRead, 1) },
		func() (float64, error) { return runRead(DefaultLearnedOptions().PredictCost, workload.SeqRead, 8) },
		func() (float64, error) { return runRead(0, workload.SeqRead, 8) },
	}
	vals := make([]float64, len(cells))
	err := runCells(b, len(cells), func(i int) error {
		v, err := cells[i]()
		vals[i] = v
		return err
	})
	if err != nil {
		return Table{}, err
	}
	with, without := vals[0], vals[1]
	rrLD, rrIdeal := vals[2], vals[3]
	srLD, srIdeal := vals[4], vals[5]
	return Table{
		Title:  "Fig 18: LearnedFTL overhead ablations",
		Header: []string{"comparison", "LearnedFTL", "counterpart", "ratio"},
		Rows: [][]string{
			{"randwrite MB/s (w/ vs w/o train+sort)", f1(with), f1(without), f2(with / without)},
			{"randread MB/s (LD vs ideal-LD)", f1(rrLD), f1(rrIdeal), f2(rrLD / rrIdeal)},
			{"seqread MB/s (LD vs ideal-LD)", f1(srLD), f1(srIdeal), f2(srLD / srIdeal)},
		},
	}, nil
}

// Fig19 reproduces the RocksDB experiment: db_bench readrandom/readseq with
// one thread over an 80%-full LSM-shaped database.
func Fig19(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Fig 19: RocksDB db_bench model, 1 thread (throughput; hit ratios)",
		Header: []string{"FTL", "readrandom MB/s", "readseq MB/s", "rr CMT", "rr model", "rs CMT", "rs model"},
	}
	lp := cfg.LogicalPages()
	schemes := Schemes()
	rows := make([][]string, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		s := schemes[i]
		f, err := New(s, cfg)
		if err != nil {
			return err
		}
		sim.Warmed(f, workload.RocksDBFill(lp, 0.8, float64(b.WarmExtra), 3), 0)
		rr := measure(f, workload.RocksDBReadRandom(lp, 0.8, 1, b.Requests, 5))
		rs := measure(f, workload.RocksDBReadSeq(lp, 0.8, 1, b.Requests, 5))
		rows[i] = []string{
			s.String(), f1(rr.ReadMBps), f1(rs.ReadMBps),
			pct(rr.CMTHitRatio), pct(rr.ModelHitRatio),
			pct(rs.CMTHitRatio), pct(rs.ModelHitRatio),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// Fig20 reproduces the Filebench comparison across all five FTLs.
func Fig20(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Fig 20: Filebench throughput (MB/s read+write; Table I configs)",
		Header: []string{"FTL", "fileserver", "webserver", "varmail"},
	}
	schemes := Schemes()
	rows := make([][]string, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		s := schemes[i]
		f, err := newWarmed(s, cfg, b)
		if err != nil {
			return err
		}
		row := []string{s.String()}
		for _, k := range []workload.FilebenchKind{workload.Fileserver, workload.Webserver, workload.Varmail} {
			r := filebenchRun(f, k, b)
			row = append(row, f1(r.ReadMBps+r.WriteMBps))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// traceSchemes are the FTLs of the tail-latency and energy evaluations.
func traceSchemes() []Scheme {
	return []Scheme{SchemeTPFTL, SchemeLeaFTL, SchemeLearnedFTL, SchemeIdeal}
}

// runTrace replays one synthetic trace on a warmed device.
func runTrace(f FTL, spec workload.TraceSpec, b Budget) stats.Report {
	gens := spec.Generators(f.Config().LogicalPages(), 4, b.TraceScale)
	return measure(f, gens)
}

// Fig21 reproduces the tail-latency evaluation over the four Table II
// traces.
func Fig21(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Fig 21: P99 / P99.9 tail latency under real-world traces",
		Header: []string{"trace", "TPFTL p99", "LeaFTL p99", "LearnedFTL p99", "ideal p99", "TPFTL p999", "LeaFTL p999", "LearnedFTL p999", "ideal p999"},
	}
	specs := workload.Traces()
	schemes := traceSchemes()
	res, err := runTraceGrid(cfg, b, specs, schemes)
	if err != nil {
		return Table{}, err
	}
	for ti, spec := range specs {
		row := []string{spec.Name}
		for si := range schemes {
			row = append(row, ms(res[ti][si].P99))
		}
		for si := range schemes {
			row = append(row, ms(res[ti][si].P999))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runTraceGrid measures every (trace × scheme) combination as one sweep
// cell with its own warmed device, returning reports indexed
// [trace][scheme].
func runTraceGrid(cfg Config, b Budget, specs []workload.TraceSpec, schemes []Scheme) ([][]stats.Report, error) {
	res := make([][]stats.Report, len(specs))
	for ti := range res {
		res[ti] = make([]stats.Report, len(schemes))
	}
	err := runCells(b, len(specs)*len(schemes), func(i int) error {
		ti, si := i/len(schemes), i%len(schemes)
		f, err := newWarmed(schemes[si], cfg, b)
		if err != nil {
			return err
		}
		res[ti][si] = runTrace(f, specs[ti], b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig22 reproduces the energy comparison over the four traces, normalized
// to TPFTL.
func Fig22(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Fig 22: energy under real-world traces (normalized to TPFTL)",
		Header: []string{"trace", "TPFTL", "LeaFTL", "LearnedFTL", "ideal"},
	}
	specs := workload.Traces()
	schemes := traceSchemes()
	res, err := runTraceGrid(cfg, b, specs, schemes)
	if err != nil {
		return Table{}, err
	}
	for ti, spec := range specs {
		base := res[ti][0].EnergyMJ
		row := []string{spec.Name}
		for si := range schemes {
			if base > 0 {
				row = append(row, f2(res[ti][si].EnergyMJ/base))
			} else {
				row = append(row, "n/a")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table2 self-checks the synthetic trace generators against the published
// Table II characteristics.
func Table2(cfg Config, b Budget) (Table, error) {
	t := Table{
		Title:  "Table II: synthetic trace generators vs published characteristics",
		Header: []string{"trace", "#I/O (paper)", "#I/O (gen)", "avg KB (paper)", "avg KB (gen)", "read% (paper)", "read% (gen)"},
	}
	specs := workload.Traces()
	rows := make([][]string, len(specs))
	err := runCells(b, len(specs), func(i int) error {
		spec := specs[i]
		reqs, avgKB, readFrac := spec.Stats(cfg.LogicalPages(), b.TraceScale)
		rows[i] = []string{
			spec.Name,
			fmt.Sprint(spec.Requests), fmt.Sprintf("%d (×%.2f)", reqs, b.TraceScale),
			f1(spec.AvgKB), f1(avgKB),
			pct(spec.ReadRatio), pct(readFrac),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// opLadder returns the over-provisioning ratios gcsweep measures: the
// device config's own ratio plus three increments, clipped below the 0.5
// validation bound (the ladder ascends so every scheme — including
// LearnedFTL's row-hungry group allocator — constructs at every rung).
// Budget.OPRatio > 0 narrows the ladder to that single ratio.
func opLadder(cfg Config, b Budget) []float64 {
	if b.OPRatio > 0 {
		return []float64{b.OPRatio}
	}
	var out []float64
	for _, d := range []float64{0, 0.04, 0.08, 0.12} {
		if r := cfg.OPRatio + d; r < 0.5 {
			out = append(out, r)
		}
	}
	return out
}

// GCSweep measures write amplification, GC activity and wear versus the
// over-provisioning ratio for every scheme × victim-selection policy:
// random single-page overwrites on a warmed device, the workload where GC
// dominates. WA falls monotonically as OP grows (more slack ⇒ emptier
// victims ⇒ less relocation); the policy columns show what victim
// selection buys at fixed OP. Budget.GCPolicies narrows the policy set,
// Budget.OPRatio the ladder.
func GCSweep(cfg Config, b Budget) (Table, error) {
	pols, err := b.gcPolicyList()
	if err != nil {
		return Table{}, err
	}
	ratios := opLadder(cfg, b)
	schemes := Schemes()
	nCells := len(schemes) * len(pols) * len(ratios)
	rows := make([][]string, nCells)
	err = runCells(b, nCells, func(i int) error {
		si := i / (len(pols) * len(ratios))
		pi := i / len(ratios) % len(pols)
		ri := i % len(ratios)
		c := cfg
		c.OPRatio = ratios[ri]
		c.GCPolicy = pols[pi]
		f, err := newWarmed(schemes[si], c, b)
		if err != nil {
			return err
		}
		r := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
		movedPerGC := 0.0
		if col := f.Collector(); col.GCCount > 0 {
			movedPerGC = float64(col.GCPagesMoved) / float64(col.GCCount)
		}
		rows[i] = []string{
			schemes[si].String(), string(pols[pi]), pct(ratios[ri]),
			f2(r.WriteAmp), fmt.Sprint(r.GCCount), f1(movedPerGC),
			fmt.Sprint(r.Wear.MaxErases), f2(r.Wear.CV), f1(r.LifetimeTBW),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "GC sweep: write amplification and wear vs over-provisioning (randwrite; moved = pages relocated per GC; PE = erases)",
		Header: []string{"FTL", "policy", "OP", "WA", "GCs", "moved/GC", "max PE", "PE CV", "life TB"},
		Rows:   rows,
	}, nil
}

// gcLatModes are the two collection modes gclat contrasts.
var gcLatModes = []string{"foreground", "background"}

// GCLat measures open-loop write tail latency under foreground-only versus
// background garbage collection, per scheme, at a moderate offered load.
// The default operating point is half of what the scheme itself sustains
// under closed-loop random writes on the same warmed device (a per-cell
// saturation probe), so every scheme sees real arrival gaps for background
// collection to hide in — a device-wide anchor would overload the slow
// schemes and starve the fast ones of GC pressure. Foreground mode charges
// collections to the triggering write (the paper's tail mechanism);
// background mode runs them in arrival gaps, cutting P99/P99.9.
// Budget.OfferedIOPS overrides the operating point, Budget.Arrival the
// arrival process.
func GCLat(cfg Config, b Budget) (Table, error) {
	kind, err := b.openLoopKind()
	if err != nil {
		return Table{}, err
	}
	threads := b.Threads
	if threads < 1 {
		threads = 1
	}
	schemes := Schemes()
	rows := make([][]string, len(schemes)*len(gcLatModes))
	err = runCells(b, len(rows), func(i int) error {
		si, mi := i/len(gcLatModes), i%len(gcLatModes)
		f, err := newWarmed(schemes[si], cfg, b)
		if err != nil {
			return err
		}
		rate := b.OfferedIOPS
		if rate <= 0 {
			// Saturation probe: closed-loop randwrite on this very device.
			// Deterministic, so the foreground and background cells of one
			// scheme derive the same operating point.
			probe := measureFIO(f, workload.RandWrite, threads, 1, b.Requests/2)
			rate = 0.5 * probe.IOPS
		}
		per := b.Requests / threads
		if per < 1 {
			per = 1
		}
		streams := workload.OpenFIO("randwrite", workload.RandWrite,
			f.Config().LogicalPages(), 1, threads, per, kind, rate, 2221)
		r := measureOpenWith(f, streams, mi == 1)
		rows[i] = []string{
			schemes[si].String(), gcLatModes[mi], f0(rate), f0(r.IOPS),
			lat(r.MeanLat), lat(r.P99), lat(r.P999), pct(r.WaitShare),
			fmt.Sprint(r.GCCount), fmt.Sprint(r.BGGCCount),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "GC latency: open-loop randwrite tails, foreground vs background collection",
		Header: []string{"FTL", "gc mode", "offered IOPS", "achieved IOPS", "mean", "p99", "p99.9", "wait", "GCs", "bg GCs"},
		Rows:   rows,
	}, nil
}

// mountFills is the device-fill ladder of the mountlat experiment, as
// fractions of the logical space written before the crash.
var mountFills = []float64{0.25, 0.50, 0.75, 1.00}

// MountLat measures crash-recovery time: for every scheme × fill level the
// device is filled, "loses power" (all DRAM translation state dropped) and
// remounts by scanning the flash array's out-of-band reverse mappings to
// rebuild the L2P and GTD (paper Fig. 11 — the OOB carries the reverse
// mapping precisely so this scan is possible). Mount latency is the timed
// scan's makespan: each chip reads the OOB of its programmed pages —
// stale pages included, since staleness is only known after reading — with
// chips scanning in parallel. The fill phase is a sequential write of the
// leading fraction of the logical space, so scanned pages grow with fill
// and the recovery-time-vs-fill curve is the deliverable. Schemes differ
// through their flash footprints: translation-page maintenance and
// buffering change how many pages a fill leaves programmed.
func MountLat(cfg Config, b Budget) (Table, error) {
	schemes := Schemes()
	rows := make([][]string, len(schemes)*len(mountFills))
	err := runCells(b, len(rows), func(i int) error {
		si, fi := i/len(mountFills), i%len(mountFills)
		f, err := New(schemes[si], cfg)
		if err != nil {
			return err
		}
		rec, ok := f.(ftl.CrashRecoverer)
		if !ok {
			return fmt.Errorf("learnedftl: %s does not support crash recovery", f.Name())
		}
		sh, ok := f.(interface{ ShadowL2P() []nand.PPN })
		if !ok {
			return fmt.Errorf("learnedftl: %s does not expose a shadow L2P", f.Name())
		}
		lp := f.Config().LogicalPages()
		fill := int64(float64(lp) * mountFills[fi])
		var now nand.Time
		for l := int64(0); l < fill; l += 128 {
			n := fill - l
			if n > 128 {
				n = 128
			}
			now = f.WritePages(l, int(n), now)
		}
		f.Flash().ResetCounters()
		start := f.Flash().MaxChipBusy()
		done := rec.RecoverFromCrash(start)
		cnt := f.Flash().Counters()
		mapped := int64(0)
		for _, p := range sh.ShadowL2P() {
			if p != nand.InvalidPPN {
				mapped++
			}
		}
		row := []string{
			schemes[si].String(), pct(mountFills[fi]), fmt.Sprint(mapped),
			fmt.Sprint(cnt.Reads[nand.OpMount]), lat(done - start),
		}
		// With the reliability model on, the scan can lose mappings to
		// uncorrectable OOB reads; surface the count. The column appears
		// only when fault is enabled so fault-free goldens stay
		// byte-identical.
		if cfg.Fault.Enabled {
			ms, msOK := f.(interface{ MountScanStats() persist.ScanStats })
			if !msOK {
				return fmt.Errorf("learnedftl: %s does not expose mount scan stats", f.Name())
			}
			row = append(row, fmt.Sprint(ms.MountScanStats().LostMappings))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	header := []string{"FTL", "fill", "recovered LPNs", "scanned pages", "mount"}
	if cfg.Fault.Enabled {
		header = append(header, "lost maps")
	}
	return Table{
		Title:  "Mount latency: OOB crash-recovery scan vs device fill (scanned = programmed pages whose OOB the mount read)",
		Header: header,
		Rows:   rows,
	}, nil
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

// CrashSweep runs the power-loss injection campaign (internal/crash) per
// scheme: a warmed device is snapshotted, a deterministic write+GC-heavy
// window is probed uncut, then every enumerated (and fuzzed) flash-operation
// ordinal through that window is injected as a power cut — completing or
// tearing the in-flight program — followed by a timed OOB remount and full
// invariant verification against the durability oracle (acked writes must
// survive, at most one valid page per LPN, GTD/L2P/allocator consistent with
// flash). "lost acked" must be 0 and the verdict "clean" for every scheme;
// Budget.CrashFuzz and Budget.CrashStride size the campaign.
func CrashSweep(cfg Config, b Budget) (Table, error) {
	schemes := Schemes()
	fuzz := b.CrashFuzz
	if fuzz <= 0 {
		fuzz = 40
	}
	window := b.Requests / 4
	if window < 64 {
		window = 64
	}
	rows := make([][]string, len(schemes))
	err := runCells(b, len(schemes), func(i int) error {
		s := schemes[i]
		f, err := newWarmed(s, cfg, b)
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
			dev, ok := g.(crash.Device)
			if !ok {
				return nil, nil, fmt.Errorf("learnedftl: %s does not support crash injection", g.Name())
			}
			return dev, crashWindow(lp, window, 3301+int64(i)), nil
		}
		res, err := crash.RunCampaign(newRun, crash.CampaignConfig{
			Stride:     b.CrashStride,
			TargetEnum: 24,
			Fuzz:       fuzz,
			Seed:       9001 + int64(i),
		})
		if err != nil {
			return err
		}
		verdict := "clean"
		if !res.OK() {
			verdict = fmt.Sprintf("DIRTY (%d violations)", len(res.Violations))
		}
		rows[i] = []string{
			s.String(), fmt.Sprint(res.WindowOps), fmt.Sprint(res.WindowErases),
			fmt.Sprint(res.Points), fmt.Sprint(res.Fired), fmt.Sprint(res.TornCuts),
			fmt.Sprint(res.LostAcked), fmt.Sprint(res.TornDiscarded),
			fmt.Sprint(res.LostMappings),
			lat(res.MountMean()), lat(res.MountMax), verdict,
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Crash sweep: deterministic power-loss injection through a write+GC window (lost acked must be 0; torn drop = half-programmed pages discarded at mount)",
		Header: []string{"FTL", "window ops", "GCs", "points", "fired", "torn cuts", "lost acked", "torn drop", "lost maps", "mount mean", "mount max", "verdict"},
		Rows:   rows,
	}, nil
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

// ScaleExp measures how simulator cost scales with device size: every
// scheme on a ladder of geometries from the tiny test device up to the
// paper's 32 GiB one, reporting the warm-up's host wall clock (the dominant
// cost of a sweep cell), steady-state random-write IOPS over the measured
// window, write amplification, and the device model's resident metadata
// footprint (bytes per physical page and total) that bounds how many cells
// fit in RAM. Warm-up deliberately bypasses the checkpoint cache — its
// wall clock is the deliverable, so restoring it would measure the cache
// instead. The wall-clock column is host time and varies run to run; every
// other column is deterministic. Budget.ScaleMinGiB/ScaleMaxGiB window the
// ladder.
func ScaleExp(cfg Config, b Budget) (Table, error) {
	rungs, err := scaleLadder(b)
	if err != nil {
		return Table{}, err
	}
	schemes := Schemes()
	rows := make([][]string, len(rungs)*len(schemes))
	err = runCells(b, len(rows), func(i int) error {
		ri, si := i/len(schemes), i%len(schemes)
		c := rungs[ri]
		f, err := New(schemes[si], c)
		if err != nil {
			return err
		}
		// The simulated-program count of the warm-up is the deterministic,
		// contention-free cost signal; the wall clock beside it includes
		// whatever co-running cells the worker pool scheduled. Both come
		// straight from the warm-up result now instead of being re-derived
		// from the lifetime counters.
		ws := warmDevice(f, b)
		warmSecs := ws.Seconds
		warmProgs := ws.Programs
		r := measureFIO(f, workload.RandWrite, b.Threads, 1, b.Requests)
		fp := f.Flash().Footprint()
		rows[i] = []string{
			schemes[si].String(),
			fmt.Sprintf("%.2fGiB", float64(c.Geometry.TotalBytes())/(1<<30)),
			fmt.Sprint(c.Geometry.TotalBlocks()),
			fmt.Sprintf("%.2f", fp.BytesPerPage),
			fmt.Sprintf("%.1f", float64(fp.TotalBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(warmProgs)/1e6),
			fmt.Sprintf("%.2fs", warmSecs),
			f0(r.IOPS), f2(r.WriteAmp),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Scale: geometry ladder tiny -> paper (warm Mpg = simulated warm-up programs, deterministic; warm = host wall clock, contention-prone under -parallel)",
		Header: []string{"FTL", "device", "blocks", "meta B/page", "meta MiB", "warm Mpg", "warm", "randwrite IOPS", "WA"},
		Rows:   rows,
	}, nil
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

// sci formats reliability rates (UBER, BER) in scientific notation.
func sci(v float64) string { return fmt.Sprintf("%.2e", v) }

// FaultSweep measures end-to-end reliability vs raw bit error rate: every
// scheme runs a mixed open-loop workload (70% reads / 30% writes, idle-gap
// background GC + scrub active) at each rung of a raw-BER ladder, reporting
// achieved throughput, tail latency (read retries add timing-class delays),
// ECC retry traffic, the uncorrectable-bit error rate, scrub-driven refresh
// traffic and its write amplification. Budget.FaultBER pins a single rung
// and Budget.FaultSchemes narrows the scheme set (CI smoke cells).
func FaultSweep(cfg Config, b Budget) (Table, error) {
	kind, err := b.openLoopKind()
	if err != nil {
		return Table{}, err
	}
	schemes, err := b.faultSchemeList()
	if err != nil {
		return Table{}, err
	}
	bers := faultBERLadder
	if b.FaultBER > 0 {
		bers = []float64{b.FaultBER}
	}
	threads := b.Threads
	if threads < 2 {
		threads = 2
	}
	rows := make([][]string, len(schemes)*len(bers))
	err = runCells(b, len(rows), func(i int) error {
		si, bi := i/len(bers), i%len(bers)
		fcfg := cfg
		fcfg.Fault = faultSweepConfig(bers[bi], schemes[si])
		f, err := newWarmed(schemes[si], fcfg, b)
		if err != nil {
			return err
		}
		rate := b.OfferedIOPS
		if rate <= 0 {
			// Saturation probe on this very device (the GCLat idiom):
			// writes are the slow half of the mix, so half the closed-loop
			// randwrite rate lands the whole mix below the knee with idle
			// gaps left for the scrubber. Retries slow the probe too, so
			// the operating point self-scales with the rung's BER.
			probe := measureFIO(f, workload.RandWrite, threads, 1, b.Requests/2)
			rate = 0.5 * probe.IOPS
		}
		spt := threads / 2
		per := b.Requests / threads
		if per < 1 {
			per = 1
		}
		lp := f.Config().LogicalPages()
		streams := append(
			workload.OpenFIO("randread", workload.RandRead, lp, 1, spt, per, kind, 0.7*rate, 3331),
			workload.OpenFIO("randwrite", workload.RandWrite, lp, 1, spt, per, kind, 0.3*rate, 3433)...)
		r := measureOpenWith(f, streams, true)
		refreshWA := "-"
		if hw := r.Flash.Programs[nand.OpHostData]; hw > 0 {
			refreshWA = f2(float64(r.RefreshPages) / float64(hw))
		}
		rows[i] = []string{
			schemes[si].String(), sci(bers[bi]), f0(r.IOPS),
			lat(r.P99), lat(r.P999),
			fmt.Sprint(r.Rel.Retries), fmt.Sprint(r.Rel.HostUncorrectable), sci(r.UBER),
			fmt.Sprint(r.RefreshPages), refreshWA, fmt.Sprint(r.GrownBadBlocks),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Fault sweep: reliability vs raw BER, mixed open-loop 70r/30w with background scrub (refresh WA = scrub rewrites per host-written page)",
		Header: []string{"FTL", "raw BER", "IOPS", "p99", "p99.9", "retries", "uncorr", "UBER", "refresh pg", "refresh WA", "bad blk"},
		Rows:   rows,
	}, nil
}

var scrubModes = []string{"off", "on"}

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
	lethal := float64(fc.ECCBits) / (cwBits * 0.9) // uncorrectable even at minimum jitter
	secs := float64(bake) / float64(nand.Second)
	if secs > 0 {
		fc.RetentionBERPerSec = (0.7*lethal - fc.BaseBER) / secs
	}
	return fc
}

// ScrubLat measures what background scrub buys: every scheme reads a small
// hot working set — striped by the sequential fill across every chip's
// first-written block — open-loop at equal offered load, scrub off vs on.
// The hot blocks enter the window at-risk (flagged on first read, still
// correctable) and the retention ramp pushes unscrubbed pages over the ECC
// threshold mid-window. Off, the back half of the hot reads is
// host-visible data loss. On, the first reads queue the stripe and the
// idle-gap scrubber rewrites it in time, so loss collapses to the reads
// that land after a block turns and before its refresh — at the cost of
// refresh traffic and scrub interference in the tails. The hot set is
// deliberately a few blocks' worth: a working set wider than the
// scrubber's idle-gap bandwidth could never be defended at any rate.
// LearnedFTL has no block-level scrub path, so its two rows match.
func ScrubLat(cfg Config, b Budget) (Table, error) {
	kind, err := b.openLoopKind()
	if err != nil {
		return Table{}, err
	}
	schemes, err := b.faultSchemeList()
	if err != nil {
		return Table{}, err
	}
	threads := b.Threads
	if threads < 1 {
		threads = 1
	}
	rows := make([][]string, len(schemes)*len(scrubModes))
	err = runCells(b, len(rows), func(i int) error {
		si, mi := i/len(scrubModes), i%len(scrubModes)
		fcfg := cfg
		fcfg.Fault = scrubLatConfig(mi == 1)
		// Sequential-fill warm only (no random overwrite passes): the hot
		// LPNs must still live in the handful of first-written blocks, not
		// scattered over whatever blocks the overwrite pass left active.
		bs := b
		bs.WarmExtra = 0
		f, err := newWarmed(schemes[si], fcfg, bs)
		if err != nil {
			return err
		}
		lp := f.Config().LogicalPages()
		hot := int64(4 * cfg.Geometry.PagesPerBlock)
		if hot > lp {
			hot = lp
		}
		per := b.Requests / threads
		if per < 1 {
			per = 1
		}
		rate := b.OfferedIOPS
		if rate <= 0 {
			// Rate probe, under the still-benign model: closed-loop reads
			// of the hot set on this very device — deterministic, so the
			// off and on cells derive the same operating point. The tiny
			// fraction is load-bearing: the sequential fill striped the
			// hot LPNs across every chip's first block, so the scrubber
			// must refresh a whole stripe of blocks — around a second of
			// chip time — out of idle gaps before the retention ramp
			// turns them lethal mid-window.
			probe := measure(f, workload.FIO(workload.RandRead, hot, 1, threads, per/2+1, 7))
			rate = 0.008 * probe.IOPS
		}
		// Shelf-bake the device for one window length — every warm write
		// enters the window at-risk but not yet lost (see scrubLatAge) —
		// then swap in the retention ramp anchored to that bake. Physical
		// state (ages, read counts) is untouched; only the clock and the
		// BER mapping change.
		bake := nand.Time(float64(int64(threads)*int64(per)) / rate * float64(nand.Second))
		f.Flash().AdvanceIdle(bake)
		fc := scrubLatAge(fcfg.Fault, cfg, bake)
		f.Flash().SetFaultModel(fault.New(fc, int64(cfg.Geometry.PageSize)*8))
		streams := workload.OpenFIO("hotread", workload.RandRead,
			hot, 1, threads, per, kind, rate, 4447)
		r := measureOpenWith(f, streams, true)
		rows[i] = []string{
			schemes[si].String(), scrubModes[mi], f0(rate), f0(r.IOPS),
			lat(r.P99), lat(r.P999),
			fmt.Sprint(r.Rel.HostUncorrectable), sci(r.UBER),
			fmt.Sprint(r.ScrubCount), fmt.Sprint(r.RefreshPages),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Scrub latency: hot-set reads of retention-aged blocks, background scrub off vs on (uncorr = host-visible data loss)",
		Header: []string{"FTL", "scrub", "offered IOPS", "IOPS", "p99", "p99.9", "uncorr", "UBER", "scrubs", "refresh pg"},
		Rows:   rows,
	}, nil
}

// ExperimentInfo describes one runnable experiment for the registry and
// the ftlbench -list table.
type ExperimentInfo struct {
	ID   string
	Desc string
	Run  func(Config, Budget) (Table, error)
}

// ExperimentList returns every experiment in presentation order (paper
// figures first, then the simulator's own experiments).
func ExperimentList() []ExperimentInfo {
	return []ExperimentInfo{
		{"fig2", "TPFTL seq/rand read throughput + CMT hit vs thread count", Fig2},
		{"fig3", "TPFTL CMT hit ratio vs CMT size (0.1%-50%)", Fig3},
		{"fig6", "LeaFTL vs TPFTL random reads; single/double/triple breakdown", Fig6},
		{"fig7", "TPFTL vs LeaFTL on Filebench personalities", Fig7},
		{"fig14", "headline FIO comparison: all five FTLs x four patterns", Fig14},
		{"fig15", "host-CPU cost of sorting / training / prediction (wall clock)",
			func(Config, Budget) (Table, error) { return Fig15() }},
		{"fig16", "GC count and frequency under FIO writes", Fig16},
		{"fig17", "sorting+training share of LearnedFTL GC time", Fig17},
		{"fig18", "LearnedFTL overhead ablations (training charge, prediction cost)", Fig18},
		{"fig19", "RocksDB db_bench readrandom/readseq model", Fig19},
		{"fig20", "Filebench throughput, all five FTLs", Fig20},
		{"fig21", "P99/P99.9 tail latency under Table II traces", Fig21},
		{"fig22", "energy under Table II traces, normalized to TPFTL", Fig22},
		{"table2", "trace-generator self-check against published statistics", Table2},
		{"loadsweep", "open-loop latency vs offered IOPS for all five FTLs", LoadSweep},
		{"tenantmix", "two rate-controlled tenants sharing one device", TenantMixExp},
		{"gcsweep", "write amplification and wear vs over-provisioning x GC policy", GCSweep},
		{"gclat", "open-loop write tails: foreground vs background GC", GCLat},
		{"mountlat", "OOB crash-recovery scan latency vs device fill", MountLat},
		{"crashsweep", "power-loss injection campaign: recovery success, lost acked writes, mount latency", CrashSweep},
		{"faultsweep", "UBER, tails and refresh WA vs raw bit error rate", FaultSweep},
		{"scrublat", "read-disturb data loss and tails, background scrub off vs on", ScrubLat},
		{"scale", "geometry ladder tiny -> paper: warm-up cost, steady IOPS, model footprint", ScaleExp},
		{"latbreak", "mean and P99.9 latency decomposed by phase, per scheme", LatBreak},
		{"fleet", "multi-device array: per-tenant tails and wear CV per placement policy, with mid-run device failure + rebuild", FleetExp},
	}
}

// Experiments maps experiment ids to runners; cmd/ftlbench and the README
// use these ids.
func Experiments() map[string]func(Config, Budget) (Table, error) {
	m := make(map[string]func(Config, Budget) (Table, error))
	for _, e := range ExperimentList() {
		m[e.ID] = e.Run
	}
	return m
}

// ExperimentIDs returns the sorted experiment ids.
func ExperimentIDs() []string {
	m := Experiments()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
