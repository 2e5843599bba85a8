// Command bench is the repository's benchmark: four workloads over the five
// FTL schemes on a pinned device, end-to-end metrics from an untraced run
// and per-layer metrics from a traced one. See README.md beside this file.
//
//	go run ./bench -workload randread_cold -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload randread_cold -seed 1 -seconds 10 -trace 1
//	go run ./bench compare bench/baseline/set1 bench/baseline/set2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"learnedftl/internal/ftl"
)

// header says what produced a result: enough to tell whether two results
// may be compared.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Config     string  `json:"config_fingerprint"`
}

// result is one run, as -out writes it and compare reads it.
type result struct {
	Header    header             `json:"header"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"failed_checks,omitempty"`
	Digests   map[string]string  `json:"sim_digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int64   `json:"samples"`
	// Beside holds what the metric table asks to see beside a metric but
	// that is not one: per scheme the median, P99.9 and sample count that
	// go with P99, and the phase's size and median time.
	Beside map[string]map[string]float64 `json:"beside"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the request streams, pre-touch passes and arrival processes")
	seconds := fs.Float64("seconds", runSeconds, "timed phases run in rounds until this many seconds of them have passed")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and a span file; 0: untraced run, end-to-end metrics")
	out := fs.String("out", "", "write the result to this file, for compare")
	fs.Parse(os.Args[1:])

	spec, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: bench -workload <%s> [-seed n] [-seconds s] [-trace 0|1] [-out file]\n       bench compare <a> <b>   (each a result file or a directory of them)\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg, err := pinnedConfig()
	if err != nil {
		fatal(err)
	}
	b := newBench(cfg, spec, *seed, *seconds, *trace == 1, 1)
	res, err := b.run()
	if err != nil {
		fatal(err)
	}
	res.Header.Commit = commitLabel()

	printTable(res)
	if b.tr != nil {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fatal(err)
		}
		if err := b.tr.writeFile(filepath.Join(traceDir, spec.name+".trace.json")); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	printContractLine(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runSeconds is the -seconds the benchmark driver passes, as BENCHMARK.json
// tells it to.
const runSeconds = 20

// traceDir is where a traced run leaves its span file, relative to the
// repository root the benchmark is run from.
const traceDir = "bench/out"

// commitLabel names the commit the run measures, as git describes the
// working tree ("-dirty" when it has uncommitted changes), or "" outside a
// git checkout; compare matches digests only between runs of one label. A
// dirty label names the parent commit, so runs either side of an
// uncommitted model edit share it: commit before comparing across edits.
func commitLabel() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readSet reads one side of a comparison: a result file, or a directory
// whose *.json files are results.
func readSet(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var set []result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, r)
	}
	return set, nil
}

// run is one whole benchmark run: set-up, rounds, final reports and
// recovery checks, and on a traced run the kernels and probes.
func (b *bench) run() (result, error) {
	setupS, heapMiB, err := b.setup()
	if err != nil {
		return result{}, err
	}
	if err := b.rounds(); err != nil {
		return result{}, err
	}
	recoverMS, mountMS := b.finish()

	res := result{
		Header: header{
			Workload: b.spec.name, Seed: b.seed, Traced: b.tr != nil, Seconds: b.seconds,
			Rounds:    len(b.state[schemes[0].key].times),
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Config: configFingerprint(b.cfg),
		},
		Digests: map[string]string{},
		Beside:  map[string]map[string]float64{},
	}
	var ms metricSet
	if b.tr == nil {
		ms = b.endToEndMetrics(setupS, heapMiB)
	} else {
		ms = newMetricSet()
		if err := b.kernels(ms); err != nil {
			return result{}, err
		}
		if err := b.probes(ms); err != nil {
			return result{}, err
		}
		b.perLayerMetrics(ms, recoverMS, mountMS)
	}
	res.Metrics, res.Samples = ms.value, ms.samples
	for _, s := range schemes {
		st := b.state[s.key]
		col := st.dev.Collector()
		res.Digests[s.key] = st.digest
		res.Beside[s.key] = map[string]float64{
			"requests_per_phase": float64(st.requests),
			"pages_per_phase":    float64(st.pages),
			"latency_samples":    float64(col.HostReads + col.HostWrites),
			"sim_p50_us":         float64(col.Percentile(50)) / 1e3,
			"sim_p99.9_us":       float64(st.rep.P999) / 1e3,
			"phase_s_median":     median(st.times),
		}
	}
	res.Attempted, res.Failed, res.Notes = b.attempted, b.failed, b.notes
	res.Correct = b.failed == 0
	return res, nil
}

// configFingerprint identifies the pinned device and phase sizes.
func configFingerprint(cfg ftl.Config) string {
	return fmt.Sprintf("%v op=%.2f cmt=%.3f tp=%d group=%d lpns=%d", cfg.Geometry, cfg.OPRatio, cfg.CMTRatio,
		cfg.EntriesPerTP, cfg.GroupEntries, cfg.LogicalPages())
}

// printTable prints every metric of the run by name with its value, unit,
// family, direction, bound and sample count, then the checks' verdict.
func printTable(res result) {
	h := res.Header
	mode := "untraced: end-to-end metrics"
	if h.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("workload %s  seed %d  %s  rounds %d  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		h.Workload, h.Seed, mode, h.Rounds, h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS)
	fmt.Printf("device   %s\n\n", h.Config)
	fmt.Printf("%-40s %14s %-10s %-5s %-7s %6s %9s  %s\n", "metric", "value", "unit", "fam", "better", "bound", "samples", "should move")
	for _, d := range catalogue(h.Traced) {
		bound := "-"
		if !h.Traced {
			bound = fmt.Sprintf("%.2f", d.bound)
		}
		fmt.Printf("%-40s %14.4f %-10s %-5s %-7s %6s %9d  %s\n", d.name, res.Metrics[d.name], d.unit, d.family, d.better,
			bound, res.Samples[d.name], d.moves)
	}
	fmt.Println()
	keys := make([]string, 0, len(res.Beside))
	for k := range res.Beside {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := res.Beside[k]
		fmt.Printf("%-11s sim_digest %s  p50 %.1f us  p99.9 %.1f us over %d requests  phase %.3f s of %d pages\n", k, res.Digests[k],
			v["sim_p50_us"], v["sim_p99.9_us"], int64(v["latency_samples"]), v["phase_s_median"], int64(v["pages_per_phase"]))
	}
	fmt.Printf("\nchecks: %d operations attempted, %d failed\n", res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Println("  FAILED:", n)
	}
}

// printContractLine prints the run's last line: the one JSON object the
// benchmark driver reads.
func printContractLine(res result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range catalogue(res.Header.Traced) {
		line.Metrics[d.name] = mv{res.Metrics[d.name], d.unit}
	}
	data, _ := json.Marshal(line) // a map of floats and strings cannot fail to marshal
	fmt.Println(string(data))
}
