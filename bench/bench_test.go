package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"learnedftl"
	"learnedftl/internal/nand"
)

// The tests run the benchmark's own machinery on the tiny device with
// request counts divided by testShrink, so the whole file takes seconds.
const testShrink = 200

func tinyBench(t *testing.T, workload string, seed int64, traced bool) *bench {
	t.Helper()
	spec, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	return newBench(learnedftl.TinyConfig(), spec, seed, 0.001, traced, testShrink)
}

// digestsOf sets up the named schemes and runs one untraced phase of each.
func digestsOf(t *testing.T, b *bench, keys ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, k := range keys {
		s := schemeByKey(k)
		if _, _, err := b.setupScheme(s); err != nil {
			t.Fatal(err)
		}
		if err := b.phase(s, false); err != nil {
			t.Fatal(err)
		}
		out[k] = b.state[k].digest
	}
	if b.failed != 0 {
		t.Fatalf("output checks failed: %v", b.notes)
	}
	return out
}

func TestDigestFollowsSeed(t *testing.T) {
	for w, key := range map[string]string{"randwrite_gc": "learnedftl", "mixed_open": "dftl"} {
		a := digestsOf(t, tinyBench(t, w, 1, false), key)
		same := digestsOf(t, tinyBench(t, w, 1, false), key)
		other := digestsOf(t, tinyBench(t, w, 2, false), key)
		for k := range a {
			if a[k] != same[k] {
				t.Errorf("%s %s: seed 1 gave digest %s, then %s", w, k, a[k], same[k])
			}
			if a[k] == other[k] {
				t.Errorf("%s %s: seeds 1 and 2 gave the same digest %s", w, k, a[k])
			}
		}
	}
}

// The decorators must be invisible to the simulation on both engines: a
// traced phase after an untraced one is a second repetition, and phase
// fails the run when repetitions disagree. On mixed_open that also proves
// BackgroundGC is forwarded — without it idle-gap collection stops and the
// flash counters change.
func TestDecoratorsKeepDigest(t *testing.T) {
	for _, w := range []string{"randwrite_gc", "mixed_open"} {
		b := tinyBench(t, w, 1, true)
		for _, s := range schemes {
			if _, _, err := b.setupScheme(s); err != nil {
				t.Fatal(err)
			}
			if err := b.phase(s, false); err != nil {
				t.Fatal(err)
			}
			if err := b.phase(s, true); err != nil {
				t.Fatal(err)
			}
			if rd, wr := b.tr.get(s.key+"/ftl.ReadPages"), b.tr.get(s.key+"/ftl.WritePages"); rd.count+wr.count == 0 {
				t.Errorf("%s %s: the FTL decorator saw no call", w, s.key)
			}
		}
		if next := b.tr.get("workload.Next"); next.count == 0 {
			t.Errorf("%s: the generator decorator saw no call", w)
		}
		if b.failed != 0 {
			t.Errorf("%s: %v", w, b.notes)
		}
	}
}

func TestCheckerCatchesCorruptL2P(t *testing.T) {
	b := tinyBench(t, "randread_cold", 1, false)
	dev, err := b.newDevice(schemeByKey("dftl"))
	if err != nil {
		t.Fatal(err)
	}
	warmUp(dev)
	l2p := dev.ShadowL2P()
	if n, why := checkL2P(dev.Flash(), l2p, nil); n != 0 {
		t.Fatalf("clean map: %d misses, first: %s", n, why)
	}
	l2p[10], l2p[20] = l2p[20], l2p[10] // two LPNs pointing at each other's pages
	l2p[30] = nand.InvalidPPN           // one LPN lost
	if n, _ := checkL2P(dev.Flash(), l2p, nil); n != 3 {
		t.Errorf("corrupted map: %d misses, want 3", n)
	}
	if n, _ := checkL2P(dev.Flash(), l2p, map[int64]struct{}{30: {}}); n != 2 {
		t.Errorf("corrupted map with LPN 30 exempt: %d misses, want 2", n)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json must name exactly what the program emits, with the
// catalogue's units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, the program has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the program has %d", len(bj.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, the program has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad name or bound %v", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s in s, lower is better")
	}
	layers := perLayer()
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, the program has %d", len(bj.PerLayer), len(layers))
	}
	for i, m := range bj.PerLayer {
		d := layers[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !name.MatchString(m.Name) {
			t.Errorf("per-layer %d: %+v, the program has %+v", i, m, d)
		}
	}

	// What the catalogue lists is what a run emits, traced and untraced.
	for _, traced := range []bool{false, true} {
		res, err := tinyBench(t, "hotread_fit", 1, traced).run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Attempted, res.Notes)
		}
		want := catalogue(traced)
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: run emitted %d metrics, catalogue lists %d", traced, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("traced=%v: run did not emit %s", traced, d.name)
			}
			if d.unit == "" || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s: unit %q, better %q", d.name, d.unit, d.better)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	host := metricDef{name: "host_kpages_per_s.dftl", family: "host", better: "higher", bound: 0.10}
	sim := metricDef{name: "sim_p99_us.learnedftl", family: "sim", better: "lower", bound: 0.25}
	steady := []float64{100, 101, 99, 100}
	cases := []struct {
		d         metricDef
		a, b      []float64
		sameSeeds bool
		want      string
	}{
		{host, steady, []float64{97, 98, 96, 97}, true, "ok"},
		{host, steady, []float64{80, 81, 79, 80}, true, "REGRESSED"},
		{host, steady, []float64{125, 126, 124, 125}, true, "improved"},
		{host, steady, []float64{55, 115, 65, 105}, true, "unresolved (spread > bound)"},
		{host, steady, []float64{60, 80, 70, 50}, true, "REGRESSED"}, // noisy, but every run is worse
		{sim, steady, []float64{100.5, 101.5, 99.5, 100.5}, true, "REGRESSED"},
		{sim, steady, []float64{100.5, 101.5, 99.5, 100.5}, false, "ok"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b, c.sameSeeds); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// The two committed baseline sets are two measurements of one commit on
// one machine: compare must find nothing between them.
func TestBaselineSetsAgree(t *testing.T) {
	a, err := readSet("baseline/set1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readSet("baseline/set2")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty baseline set")
	}
	if code := compareSets(a, b, io.Discard); code != 0 {
		t.Errorf("compare exits %d on the committed baseline sets", code)
	}
}
