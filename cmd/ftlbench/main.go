// Command ftlbench regenerates the tables and figures of the LearnedFTL
// paper (HPCA 2024) on the discrete-event SSD simulator.
//
// Usage:
//
//	ftlbench -exp fig14                 # one experiment, quick scale
//	ftlbench -exp all -scale quick      # the whole evaluation section
//	ftlbench -exp fig21 -scale paper    # paper-scale run (slow)
//	ftlbench -exp all -parallel         # fan cells across all CPU cores
//	ftlbench -exp all -parallel -json   # also write BENCH_<timestamp>.json
//	ftlbench -exp loadsweep             # open-loop latency vs offered IOPS
//	ftlbench -exp tenantmix -rate 50000 # two tenants at 50k IOPS combined
//	ftlbench -exp gcsweep -gc-policy greedy,costbenefit  # WA vs OP ratio
//	ftlbench -exp gclat                 # foreground vs background GC tails
//	ftlbench -exp fig16 -gc-policy costage  # any experiment, other policy
//	ftlbench -exp mountlat              # OOB crash-recovery latency vs fill
//	ftlbench -exp crashsweep -crash-fuzz 100  # power-loss injection campaign
//	ftlbench -exp all -checkpoint-dir .ckpt  # reuse warm-device checkpoints
//	ftlbench -exp scale -scale-max-gib 8     # geometry ladder up to 8 GiB
//	ftlbench -exp fig16 -cpuprofile cpu.out  # profile a run with pprof
//	ftlbench -list                      # experiment ids + descriptions
//
// -cpuprofile and -memprofile write standard pprof profiles of the run
// (inspect with `go tool pprof`), so perf work on the simulator is measured
// rather than guessed. The scale experiment climbs a geometry ladder from
// the tiny device toward the paper's 32 GiB one; -scale-min-gib and
// -scale-max-gib window the ladder (a CI smoke cell pins one rung by
// setting both to the same value).
//
// -parallel fans the independent (scheme × workload) cells of each
// experiment across GOMAXPROCS worker goroutines. Every cell builds its own
// deterministically-seeded device, so the tables are byte-identical to a
// serial run — only the wall-clock changes.
//
// Each cell itself is one sequential simulation: the paper drives one FEMU
// device per run, and cells are where parallelism pays. With -json, each
// experiment's warm-up throughput (Mpg/s) lands in the BENCH file.
//
// The open-loop experiments (loadsweep, tenantmix) drive the device with
// rate-controlled arrivals instead of the closed-loop psync model.
// -rate fixes the total offered IOPS (0 derives a ladder / operating point
// from the device's ideal random-read capability), -arrival picks the
// arrival process (poisson or fixed), and -tenant-share splits tenantmix's
// offered load between the WebSearch read tenant and the Systor write
// tenant. All arrivals are seeded, so the tables stay deterministic.
//
// -json additionally writes the results (per-experiment tables plus
// wall-clock seconds, device and budget metadata) to BENCH_<timestamp>.json
// in the current directory, for machine-readable perf trajectories.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"learnedftl"
	"learnedftl/internal/sweep"
)

// benchFile is the JSON document -json emits.
type benchFile struct {
	Timestamp string `json:"timestamp"`
	Device    string `json:"device"`
	Scale     string `json:"scale"`
	Workers   int    `json:"workers"`
	// Footprint records the configured device model's resident metadata
	// bytes (total and per physical page), so the perf trajectory captures
	// memory wins alongside wall clock.
	Footprint learnedftl.DeviceFootprint `json:"footprint"`
	Budget    learnedftl.Budget          `json:"budget"`
	Results   []learnedftl.BenchResult   `json:"results"`
}

func main() { os.Exit(run()) }

// run is main's body with a proper exit code, so the pprof defers flush
// even on failed runs.
func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id (figN, table2, or 'all')")
		scale    = flag.String("scale", "quick", "quick | paper | tiny")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Bool("parallel", false, "fan experiment cells across GOMAXPROCS workers (same tables, less wall-clock)")
		jsonOut  = flag.Bool("json", false, "write results to BENCH_<timestamp>.json")

		rate        = flag.Float64("rate", 0, "open-loop offered IOPS (0 = derive ladder/operating point from the device)")
		arrival     = flag.String("arrival", "poisson", "open-loop arrival process: poisson | fixed")
		tenantShare = flag.Float64("tenant-share", 0, "tenantmix: fraction of offered load for the read tenant (0 = default 0.7)")

		gcPolicy = flag.String("gc-policy", "", "GC victim-selection policies, comma-separated (greedy | costbenefit | costage); a single value also sets the device policy for every experiment, gcsweep sweeps the listed subset (\"\" = all)")
		opRatio  = flag.Float64("op-ratio", 0, "gcsweep: single over-provisioning ratio (0 = ladder derived from the device config)")

		faultBER     = flag.Float64("fault-ber", 0, "faultsweep: single raw-BER rung (0 = the built-in decade ladder)")
		faultSchemes = flag.String("fault-schemes", "", "faultsweep/scrublat: comma-separated scheme subset, e.g. dftl,ideal (\"\" = all five)")

		crashFuzz   = flag.Int("crash-fuzz", 0, "crashsweep: seeded random crash points per scheme on top of the enumeration (0 = 40)")
		crashStride = flag.Int64("crash-stride", 0, "crashsweep: enumerate every Nth flash-operation ordinal through the window (0 = derive ~24 ordinals)")

		fleetDevices = flag.Int("fleet-devices", 0, "fleet: number of devices in the array (0 = 8)")
		placement    = flag.String("placement", "", "fleet: comma-separated placement policies, e.g. striping,hash (\"\" = all three)")
		replicas     = flag.Int("replicas", 0, "fleet: replication copy count for the replicate policy (0 = 2)")

		checkpointDir = flag.String("checkpoint-dir", "", "directory of warm-device checkpoints: cells restore a cached warmed device instead of re-simulating warm-up (tables stay byte-identical); cold cells populate it")

		scaleMinGiB = flag.Float64("scale-min-gib", 0, "scale experiment: smallest geometry rung to run, in GiB (0 = from the tiny device)")
		scaleMaxGiB = flag.Float64("scale-max-gib", 0, "scale experiment: largest geometry rung to run, in GiB (0 = 2 GiB default; paper scale raises it to 32)")

		traceOut    = flag.String("trace", "", "capture a virtual-time trace of one device to this file (Chrome trace-event JSON, Perfetto-viewable) instead of running experiments")
		traceScheme = flag.String("trace-scheme", "learnedftl", "-trace: which scheme to capture (dftl | tpftl | leaftl | learnedftl | ideal)")
		progress    = flag.Bool("progress", false, "live per-cell sweep progress on stderr (stdout tables and BENCH JSON unchanged)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-object stats before the heap dump
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// "unbounded" exists as an engine ArrivalKind but makes the open-loop
	// experiments' offered-IOPS axis meaningless, so the CLI only accepts
	// the rate-controlled processes.
	if k, ok := learnedftl.ParseArrival(*arrival); !ok || k == learnedftl.ArrivalUnbounded {
		fmt.Fprintf(os.Stderr, "unknown arrival process %q (want poisson or fixed)\n", *arrival)
		return 2
	}

	// Every listed policy must parse, and typos must fail loudly before any
	// multi-hour run starts.
	policies, err := parseGCPolicies(*gcPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *list {
		for _, e := range learnedftl.ExperimentList() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	var cfg learnedftl.Config
	var budget learnedftl.Budget
	switch *scale {
	case "quick":
		cfg, budget = learnedftl.QuickConfig(), learnedftl.QuickBudget()
	case "paper":
		cfg, budget = learnedftl.PaperConfig(), learnedftl.PaperBudget()
	case "tiny":
		cfg = learnedftl.TinyConfig()
		budget = learnedftl.Budget{Requests: 4000, WarmExtra: 1, TraceScale: 0.003, Threads: 16}
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 2
	}
	if *parallel {
		budget.Workers = learnedftl.AutoWorkers()
	}
	budget.OfferedIOPS = *rate
	budget.Arrival = *arrival
	budget.ReadTenantShare = *tenantShare
	budget.GCPolicies = *gcPolicy
	budget.OPRatio = *opRatio
	budget.FaultBER = *faultBER
	budget.FaultSchemes = *faultSchemes
	budget.CrashFuzz = *crashFuzz
	budget.CrashStride = *crashStride
	budget.FleetDevices = *fleetDevices
	budget.FleetPlacement = *placement
	budget.FleetReplicas = *replicas
	// Only explicit flags override the scale ladder window: the unset 0
	// must not clobber PaperBudget's 32 GiB cap, and a negative or NaN
	// value reaches the budget check instead of the default ladder.
	if *scaleMinGiB != 0 {
		budget.ScaleMinGiB = *scaleMinGiB
	}
	if *scaleMaxGiB != 0 {
		budget.ScaleMaxGiB = *scaleMaxGiB
	}
	var checkpoints *learnedftl.CheckpointCache
	if *checkpointDir != "" {
		var err error
		checkpoints, err = learnedftl.NewCheckpointCache(*checkpointDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		budget.Checkpoints = checkpoints
	}
	// A single -gc-policy value also selects the device policy every other
	// experiment runs under (gcsweep always builds per-cell configs from
	// its own policy column).
	if len(policies) == 1 {
		cfg.GCPolicy = policies[0]
	}
	fmt.Printf("device: %s  logical pages: %d  budget: %d requests/run  workers: %d\n\n",
		cfg.Geometry, cfg.LogicalPages(), budget.Requests, max(1, budget.Workers))

	if *traceOut != "" {
		scheme, ok := learnedftl.ParseScheme(*traceScheme)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scheme %q (want one of %v)\n",
				*traceScheme, learnedftl.Schemes())
			return 2
		}
		trace, tab, err := learnedftl.TraceCapture(scheme, cfg, budget, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		out, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		werr := learnedftl.WriteTrace(trace, out)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			return 1
		}
		fmt.Println(tab)
		fmt.Printf("wrote %s (%d events; open at ui.perfetto.dev)\n", *traceOut, trace.Len())
		return 0
	}

	ids := learnedftl.ExperimentIDs()
	if *exp != "all" {
		if !slices.Contains(ids, *exp) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
			return 2
		}
		ids = []string{*exp}
	}

	// Run one experiment at a time so tables stream as they finish (a
	// paper-scale -exp all run takes hours) and completed results are not
	// lost if a later experiment fails.
	var results []learnedftl.BenchResult
	for _, id := range ids {
		if *progress {
			expID := id
			expStart := time.Now()
			budget.Progress = func(done, total int) {
				// \r-overwritten status on stderr only: stdout tables and
				// the BENCH JSON stay byte-identical to a silent run.
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells (%.1fs)",
					expID, done, total, time.Since(expStart).Seconds())
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		res, err := learnedftl.RunExperiments([]string{id}, cfg, budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		r := res[0]
		fmt.Println(r.Table)
		if r.WarmMpg > 0 {
			fmt.Printf("(warm-up: %.2f Mpg in %.3fs = %.2f Mpg/s)\n",
				r.WarmMpg, r.WarmSeconds, r.WarmMpgPerSec)
		}
		fmt.Printf("(%s finished in %.3fs)\n\n", r.Experiment, r.Seconds)
		results = append(results, r)
	}

	if checkpoints != nil {
		st := checkpoints.Stats()
		fmt.Printf("warm checkpoints: %d hits, %d misses, %d stored, ~%d flash programs not re-simulated\n",
			st.Hits, st.Misses, st.Stores, st.ProgramsSaved)
	}

	if *jsonOut {
		now := time.Now()
		doc := benchFile{
			Timestamp: now.Format(time.RFC3339),
			Device:    cfg.Geometry.String(),
			Scale:     *scale,
			Workers:   max(1, budget.Workers),
			Footprint: learnedftl.FootprintOf(cfg),
			Budget:    budget,
			Results:   results,
		}
		name := fmt.Sprintf("BENCH_%s.json", now.Format("20060102T150405"))
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", name)
	}
	return 0
}

// parseGCPolicies resolves the -gc-policy list ("" = every policy).
func parseGCPolicies(list string) ([]learnedftl.GCPolicy, error) {
	return sweep.ParseList(list, "GC policy", learnedftl.GCPolicies(), learnedftl.ParseGCPolicy)
}
