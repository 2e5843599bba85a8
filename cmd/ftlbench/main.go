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
//	ftlbench -exp gcsweep               # WA vs OP ratio x GC policy
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
// -scale-max-gib window the ladder (setting both to the same value
// profiles one rung alone).
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
// from the device's ideal random-read capability) and -arrival picks the
// arrival process (poisson or fixed). All arrivals are seeded, so the
// tables stay deterministic.
//
// Every experiment runs its full grid: gcsweep every GC policy over the
// device's OP ladder, faultsweep and scrublat all five schemes over the
// whole raw-BER ladder, fleet an 8-device array under all three placement
// policies. -gc-policy names the one victim-selection policy every other
// experiment's devices run under.
//
// -json additionally writes the results (per-experiment tables plus
// wall-clock seconds, device and budget metadata) to BENCH_<timestamp>.json
// in the current directory, for machine-readable perf trajectories.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"learnedftl"
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

func main() { os.Exit(run(os.Args[1:])) }

// run is main's body with a proper exit code, so the pprof defers flush
// even on failed runs.
func run(args []string) int {
	fs := flag.NewFlagSet("ftlbench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id (figN, table2, or 'all')")
		scale    = fs.String("scale", "quick", "quick | paper | tiny")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Bool("parallel", false, "fan experiment cells across GOMAXPROCS workers (same tables, less wall-clock)")
		jsonOut  = fs.Bool("json", false, "write results to BENCH_<timestamp>.json")

		rate    = fs.Float64("rate", 0, "open-loop offered IOPS (0 = derive ladder/operating point from the device)")
		arrival = fs.String("arrival", "poisson", "open-loop arrival process: poisson | fixed")

		gcPolicy  = fs.String("gc-policy", "", "GC victim-selection policy of the device every experiment but gcsweep runs on: greedy | costbenefit | costage (\"\" = the config's)")
		crashFuzz = fs.Int("crash-fuzz", 0, "crashsweep: seeded random crash points per scheme on top of the enumeration (unset = the scale's budget, 40)")

		checkpointDir = fs.String("checkpoint-dir", "", "directory of warm-device checkpoints: cells restore a cached warmed device instead of re-simulating warm-up (tables stay byte-identical); cold cells populate it")

		scaleMinGiB = fs.Float64("scale-min-gib", 0, "scale experiment: smallest geometry rung to run, in GiB (0 = from the tiny device)")
		scaleMaxGiB = fs.Float64("scale-max-gib", 0, "scale experiment: largest geometry rung to run, in GiB (unset = the scale's budget: the tiny rung, 2 or 32)")

		traceOut    = fs.String("trace", "", "capture a virtual-time trace of one device to this file (Chrome trace-event JSON, Perfetto-viewable) instead of running experiments")
		traceScheme = fs.String("trace-scheme", "learnedftl", "-trace: which scheme to capture (dftl | tpftl | leaftl | learnedftl | ideal)")
		progress    = fs.Bool("progress", false, "live per-cell sweep progress on stderr (stdout tables and BENCH JSON unchanged)")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here, -h 0

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(2, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(2, err)
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

	if _, ok := learnedftl.ParseArrival(*arrival); !ok {
		return fail(2, fmt.Errorf("unknown arrival process %q (want poisson or fixed)", *arrival))
	}

	// A typo must fail loudly before any multi-hour run starts.
	policy, err := parseGCPolicy(*gcPolicy)
	if err != nil {
		return fail(2, err)
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
		cfg, budget = learnedftl.TinyConfig(), learnedftl.TinyBudget()
	default:
		return fail(2, fmt.Errorf("unknown scale %q", *scale))
	}
	if *parallel {
		budget.Workers = learnedftl.AutoWorkers()
	}
	// A flag overrides its budget field only when the command line sets
	// it: an unset flag keeps the scale's value, and an explicit 0 means 0.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "rate":
			budget.OfferedIOPS = *rate
		case "arrival":
			budget.Arrival = *arrival
		case "crash-fuzz":
			budget.CrashFuzz = *crashFuzz
		case "scale-min-gib":
			budget.ScaleMinGiB = *scaleMinGiB
		case "scale-max-gib":
			budget.ScaleMaxGiB = *scaleMaxGiB
		}
	})
	if *checkpointDir != "" {
		if budget.Checkpoints, err = learnedftl.NewCheckpointCache(*checkpointDir); err != nil {
			return fail(2, err)
		}
	}
	// gcsweep still sweeps every policy: it sets each cell's own.
	if policy != "" {
		cfg.GCPolicy = policy
	}
	fmt.Printf("device: %s  logical pages: %d  budget: %d requests/run  workers: %d\n\n",
		cfg.Geometry, cfg.LogicalPages(), budget.Requests, max(1, budget.Workers))

	if *traceOut != "" {
		scheme, ok := learnedftl.ParseScheme(*traceScheme)
		if !ok {
			return fail(2, fmt.Errorf("unknown scheme %q (want one of %v)", *traceScheme, learnedftl.Schemes()))
		}
		trace, tab, err := learnedftl.TraceCapture(scheme, cfg, budget)
		if err != nil {
			return fail(1, err)
		}
		out, err := os.Create(*traceOut)
		if err != nil {
			return fail(1, err)
		}
		if err := errors.Join(trace.WriteJSON(out), out.Close()); err != nil {
			return fail(1, err)
		}
		fmt.Println(tab)
		fmt.Printf("wrote %s (%d events; open at ui.perfetto.dev)\n", *traceOut, trace.Len())
		return 0
	}

	ids := learnedftl.ExperimentIDs()
	if *exp != "all" {
		if !slices.Contains(ids, *exp) {
			return fail(2, fmt.Errorf("unknown experiment %q; try -list", *exp))
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
			return fail(1, err)
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

	if budget.Checkpoints != nil {
		st := budget.Checkpoints.Stats()
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
			return fail(1, err)
		}
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Printf("wrote %s\n", name)
	}
	return 0
}

// fail reports err on stderr and returns the exit code.
func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, err)
	return code
}

// parseGCPolicy resolves -gc-policy: "" keeps the device config's policy
// and is returned as is; anything else must name exactly one policy.
func parseGCPolicy(name string) (learnedftl.GCPolicy, error) {
	if name == "" {
		return "", nil
	}
	p, ok := learnedftl.ParseGCPolicy(name)
	if !ok {
		return "", fmt.Errorf("unknown GC policy %q (want one of %v)", name, learnedftl.GCPolicies())
	}
	return p, nil
}
