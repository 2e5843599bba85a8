package learnedftl

import (
	"math"
	"testing"
)

// sweepTestBudget is small enough that the determinism comparison runs in a
// few seconds even on one core.
func sweepTestBudget(workers int) Budget {
	return Budget{Requests: 2000, WarmExtra: 1, TraceScale: 0.002, Threads: 16, Workers: workers}
}

// TestLoadSweepRepeatable: the open-loop ladder covers every scheme at
// each of its eight offered rates. (That it repeats byte for byte at any
// worker count is TestEveryExperimentMatchesGolden's to check.)
func TestLoadSweepRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("load ladder skipped in -short mode")
	}
	tab := runTable(t, "loadsweep", TinyConfig(), sweepTestBudget(2))
	if len(tab.Rows) != len(Schemes())*8 {
		t.Fatalf("loadsweep rows = %d, want %d", len(tab.Rows), len(Schemes())*8)
	}
}

// TestOpenLoopBudgetValidation: a typo'd arrival process or an absurd
// offered rate must error rather than silently running with defaults, and
// "unbounded" — valid for the engine — is rejected by the
// experiments because it voids the offered-IOPS axis.
func TestOpenLoopBudgetValidation(t *testing.T) {
	b := sweepTestBudget(1)
	b.Arrival = "possion"
	if _, err := RunExperiments([]string{"loadsweep"}, TinyConfig(), b); err == nil {
		t.Fatal("typo'd arrival accepted")
	}
	b.Arrival = "unbounded"
	if _, err := RunExperiments([]string{"tenantmix"}, TinyConfig(), b); err == nil {
		t.Fatal("unbounded arrival accepted by tenantmix")
	}
	// A non-finite or negative offered rate used to reach the engine: a NaN
	// printed a p99 of about -9.2e15 µs for every scheme.
	b.Arrival = ""
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		b.OfferedIOPS = rate
		if _, err := RunExperiments([]string{"loadsweep"}, TinyConfig(), b); err == nil {
			t.Fatalf("offered IOPS %v accepted", rate)
		}
	}
}

// TestRunExperimentsOrderAndErrors covers the api.go sweep entry point.
func TestRunExperimentsOrderAndErrors(t *testing.T) {
	cfg := TinyConfig()
	res, err := RunExperiments([]string{"table2", "fig15"}, cfg, sweepTestBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Experiment != "table2" || res[1].Experiment != "fig15" {
		t.Fatalf("results out of order: %+v", res)
	}
	for _, r := range res {
		if r.Seconds < 0 || len(r.Table.Rows) == 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
	}
	if _, err := RunExperiments([]string{"nope"}, cfg, sweepTestBudget(1)); err == nil {
		t.Fatal("unknown id did not error")
	}
}
