package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compare reads two result sets (each a file -out wrote, or a directory of
// them) and judges the second against the first: per workload and end-to-end metric it prints
// both medians, the change and the bound, with a verdict; then it names
// the per-layer metrics that moved most, so that a regression points at a
// layer. It exits 1 on a regression, or when two runs that must agree on
// their simulated statistics (same commit, workload and seed) do not.

const moversShown = 8

// runsOf returns the runs of one workload, traced or not.
func runsOf(set []result, workload string, traced bool) []result {
	var out []result
	for _, r := range set {
		if r.Header.Workload == workload && r.Header.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []result, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// spread is the distance between the quartiles as a share of the median,
// with the quartiles Python's statistics.quantiles(v, n=4) gives — the
// figure the benchmark's bounds are sized against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

// seedsOf returns the sorted seeds of a group of runs.
func seedsOf(runs []result) []int64 {
	var out []int64
	for _, r := range runs {
		out = append(out, r.Header.Seed)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// worseBy returns how much b is worse than a, as a share of a.
func worseBy(d metricDef, a, b float64) float64 {
	if d.better == "lower" {
		return ratio(b-a, math.Abs(a))
	}
	return ratio(a-b, math.Abs(a))
}

// separated reports whether every run of one side reads worse than every
// run of the other — a difference the spread cannot explain away.
func separated(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) <= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges one metric of one workload. Simulated statistics repeat
// bit for bit for one seed, so when both sides ran the same seeds they are
// held to 0; otherwise, and for host metrics, to the catalogue's bound.
func verdict(d metricDef, a, b []float64, sameSeeds bool) (string, float64) {
	bound := d.bound
	if d.family == "sim" && sameSeeds {
		bound = 0
	}
	w := worseBy(d, median(a), median(b))
	noisy := math.Max(spread(a), spread(b)) > bound && bound > 0
	switch {
	case w > bound && noisy && !separated(d, a, b):
		return "unresolved (spread > bound)", bound
	case w > bound:
		return "REGRESSED", bound
	case -w > bound && noisy && !separated(d, b, a):
		return "unresolved (spread > bound)", bound
	case -w > bound:
		return "improved", bound
	}
	return "ok", bound
}

func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(out, "usage: bench compare <a> <b>   (each a result file or a directory of them)")
		return 2
	}
	var sets [2][]result
	for i, path := range args {
		set, err := readSet(path)
		if err != nil {
			fmt.Fprintln(out, "bench compare:", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(sets[0], sets[1], out)
}

func compareSets(a, b []result, out io.Writer) int {
	bad := 0
	for _, w := range workloads {
		ra, rb := runsOf(a, w.name, false), runsOf(b, w.name, false)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		sameSeeds := fmt.Sprint(seedsOf(ra)) == fmt.Sprint(seedsOf(rb))
		fmt.Fprintf(out, "%s  (%d runs, seeds %v  vs  %d runs, seeds %v)\n", w.name, len(ra), seedsOf(ra), len(rb), seedsOf(rb))
		fmt.Fprintf(out, "  %-36s %14s %14s %8s %6s  %s\n", "end-to-end metric", "median a", "median b", "change", "bound", "verdict")
		for _, d := range endToEnd {
			va, vb := valuesOf(ra, d.name), valuesOf(rb, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, bound := verdict(d, va, vb, sameSeeds)
			if v == "REGRESSED" {
				bad++
			}
			fmt.Fprintf(out, "  %-36s %14.4f %14.4f %+7.2f%% %5.0f%%  %s\n", d.name, median(va), median(vb),
				100*ratio(median(vb)-median(va), math.Abs(median(va))), 100*bound, v)
		}
		for _, r := range append(ra, rb...) {
			if !r.Correct {
				bad++
				fmt.Fprintf(out, "  run of seed %d failed %d of %d operations\n", r.Header.Seed, r.Failed, r.Attempted)
			}
		}
		printMovers(runsOf(a, w.name, true), runsOf(b, w.name, true), out)
		fmt.Fprintln(out)
	}
	bad += digestMismatches(append(append([]result(nil), a...), b...), out)
	if bad > 0 {
		fmt.Fprintf(out, "%d regression(s), failed run(s) or digest mismatch(es)\n", bad)
		return 1
	}
	fmt.Fprintln(out, "no regression")
	return 0
}

// printMovers lists the per-layer metrics whose medians differ most
// between the two sides' traced runs.
func printMovers(ra, rb []result, out io.Writer) {
	if len(ra) == 0 || len(rb) == 0 {
		return
	}
	type mover struct {
		d      metricDef
		a, b   float64
		change float64
	}
	var ms []mover
	for _, d := range perLayer() {
		va, vb := valuesOf(ra, d.name), valuesOf(rb, d.name)
		if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
			continue
		}
		ma, mb := median(va), median(vb)
		ms = append(ms, mover{d, ma, mb, (mb - ma) / math.Abs(ma)})
	}
	sort.SliceStable(ms, func(i, j int) bool { return math.Abs(ms[i].change) > math.Abs(ms[j].change) })
	fmt.Fprintf(out, "  layers that moved most (%d and %d traced runs):\n", len(ra), len(rb))
	for i := 0; i < len(ms) && i < moversShown; i++ {
		m := ms[i]
		fmt.Fprintf(out, "    %-36s %14.4f %14.4f %+7.2f%%  %s, should move %s\n", m.d.name, m.a, m.b, 100*m.change, m.d.family, m.d.moves)
	}
}

// digestMismatches reports runs of one commit, workload and seed whose
// simulated digests differ: the simulator stopped being deterministic, or
// tracing changed what it simulates. Runs that do not know their commit
// (made outside a git checkout) are left out: between them a digest may
// differ because the model changed.
func digestMismatches(all []result, out io.Writer) int {
	type key struct {
		commit, workload, scheme string
		seed                     int64
	}
	seen := map[key]string{}
	bad := 0
	for _, r := range all {
		if r.Header.Commit == "" {
			continue
		}
		for scheme, digest := range r.Digests {
			k := key{r.Header.Commit, r.Header.Workload, scheme, r.Header.Seed}
			if prev, ok := seen[k]; ok && prev != digest {
				bad++
				fmt.Fprintf(out, "digest mismatch: commit %s %s seed %d %s: %s and %s\n", k.commit, k.workload, k.seed, scheme, prev, digest)
			}
			seen[k] = digest
		}
	}
	return bad
}
