package learnedftl

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// updateGolden rewrites testdata/experiments.golden from the current code:
//
//	go test -run TestEveryExperimentMatchesGolden -update-golden .
//
// Only regenerate it for a change that is meant to move a number, and say
// which one in the commit.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/experiments.golden")

const experimentsGoldenPath = "testdata/experiments.golden"

// goldenMasked names each experiment's host-wall-clock column: its cells
// vary run to run, so they are blanked before comparison.
var goldenMasked = map[string]string{"fig15": "cost/entry", "scale": "warm"}

// goldenBudget is the budget experiment id runs under in the golden:
// sweepTestBudget(workers), with the scale ladder held to its tiny rung, and
// crashsweep at 4000 requests — its window is a quarter of the budget, and
// at 2000 requests LeaFTL's write buffer absorbs all 500 window writes, so
// the campaign has no flash operation to cut and errors.
func goldenBudget(id string, cfg Config, workers int) Budget {
	b := sweepTestBudget(workers)
	switch id {
	case "scale":
		b.ScaleMaxGiB = float64(cfg.Geometry.TotalBytes()) / (1 << 30)
	case "crashsweep":
		b.Requests = 4000
	}
	return b
}

// goldenSection renders one experiment's result for the golden file: its
// table with the wall-clock column masked, plus the SHA-256 of the JSON the
// BENCH file carries for latbreak's phase breakdowns and fleet's array
// aggregates.
func goldenSection(t *testing.T, r BenchResult) string {
	t.Helper()
	tab := r.Table
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("%s: row %d has %d cells, header %d: %v", r.Experiment, i, len(row), len(tab.Header), row)
		}
	}
	if col, ok := goldenMasked[r.Experiment]; ok {
		c := slices.Index(tab.Header, col)
		if c < 0 {
			t.Fatalf("%s: no %q column to mask in %v", r.Experiment, col, tab.Header)
		}
		rows := make([][]string, len(tab.Rows))
		for i, row := range tab.Rows {
			rows[i] = slices.Clone(row)
			rows[i][c] = "*"
		}
		tab.Rows = rows
	}
	var b strings.Builder
	b.WriteString(trimTrailing(tab.String()))
	digest := func(name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %s: %v", r.Experiment, name, err)
		}
		fmt.Fprintf(&b, "%s sha256 %x\n", name, sha256.Sum256(data))
	}
	if len(r.Obs) > 0 {
		digest("obs", r.Obs)
	}
	if len(r.Fleet) > 0 {
		digest("fleet", r.Fleet)
	}
	return b.String()
}

// trimTrailing strips the column padding Table.String appends to every
// line, so the golden carries no trailing whitespace. Cell contents are
// compared exactly.
func trimTrailing(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

// parseGolden splits the golden file into its "### id" sections.
func parseGolden(data string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split(data, "### ")[1:] {
		id, body, _ := strings.Cut(sec, "\n")
		out[id] = body
	}
	return out
}

// goldenWorkers are the worker counts every experiment is pinned at, in
// pass order: cells are hermetic, so the serial and the parallel run must
// both match the golden byte for byte.
var goldenWorkers = []int{1, 4}

// TestEveryExperimentMatchesGolden pins every registered experiment on
// TinyConfig to testdata/experiments.golden at every goldenWorkers count:
// each table byte for byte (wall-clock columns masked, every row as wide
// as the header), and latbreak's and fleet's BENCH JSON payloads by
// digest. Experiments are parallel subtests; each is hermetic, so the
// tables do not depend on what runs beside it. The passes of one
// experiment run in order through one warm-checkpoint cache: the first
// warms every device cold and stores it, the second must restore every
// warmed device from the cache (hits, no misses) and still match — a
// restored device is bit-exact to the warm-up it replaced. A failure means
// a change moved a simulated number, made one depend on the worker count,
// or left state out of a snapshot.
func TestEveryExperimentMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("all-experiment golden skipped in -short mode")
	}
	var want map[string]string
	if !*updateGolden {
		data, err := os.ReadFile(experimentsGoldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		want = parseGolden(string(data))
	}
	cfg := TinyConfig()
	ids := ExperimentIDs()
	var mu sync.Mutex
	got := make(map[string]string, len(ids))
	t.Run("exp", func(t *testing.T) {
		for _, id := range ids {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				cache, err := NewCheckpointCache(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for pass, workers := range goldenWorkers {
					t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
						before := cache.Stats()
						b := goldenBudget(id, cfg, workers)
						b.Checkpoints = cache
						res, err := RunExperiments([]string{id}, cfg, b)
						if err != nil {
							t.Fatal(err)
						}
						if st := cache.Stats(); pass > 0 && before.Stores > 0 && (st.Hits == before.Hits || st.Misses != before.Misses) {
							t.Errorf("pass after %d stores: %d hits, %d misses; want every warm-up restored",
								before.Stores, st.Hits-before.Hits, st.Misses-before.Misses)
						}
						sec := goldenSection(t, res[0])
						if pass == 0 {
							mu.Lock()
							got[id] = sec
							mu.Unlock()
						}
						if want == nil {
							return
						}
						if w, ok := want[id]; !ok {
							t.Errorf("no golden section (regenerate with -update-golden)")
						} else if sec != w {
							t.Errorf("diverged from the golden:\ngot:\n%s\nwant:\n%s", sec, w)
						}
					})
				}
			})
		}
	})
	if want != nil {
		if len(want) != len(ids) {
			t.Errorf("golden has %d sections, the registry %d experiments", len(want), len(ids))
		}
		return
	}
	if t.Failed() {
		t.Fatal("not rewriting the golden after a failed run")
	}
	var doc strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&doc, "### %s\n%s", id, got[id])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(experimentsGoldenPath, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runTable runs one experiment through RunExperiments and returns its
// table.
func runTable(t testing.TB, id string, cfg Config, b Budget) Table {
	t.Helper()
	res, err := RunExperiments([]string{id}, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Table
}

// runNarrowed runs registry experiment id on grid instead of its own: a
// test that reads part of a sweep runs only that part.
func runNarrowed(t testing.TB, id string, grid func(Config, Budget) ([]int, cellFunc, error), cfg Config, b Budget) Table {
	t.Helper()
	e := experiments[slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })]
	e.grid = grid
	res, err := e.run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table
}

// newWarmed is an experiment cell's warm-up outside an experiment run.
func newWarmed(s Scheme, cfg Config, b Budget) (FTL, error) {
	return (&cell{b: b}).warmed(s, cfg)
}
