package learnedftl

import (
	"reflect"
	"testing"
)

// TestZeroThreadsIsAnError: a budget without threads is rejected by every
// experiment and by TraceCapture with an error. Every closed-loop
// measurement divides its requests across the threads, so letting such a
// budget reach a cell is a division by zero — on a sweep goroutine under
// -parallel, which kills the process.
func TestZeroThreadsIsAnError(t *testing.T) {
	cfg := TinyConfig()
	for _, threads := range []int{0, -1} {
		b := sweepTestBudget(2)
		b.Threads = threads
		for _, id := range ExperimentIDs() {
			if _, err := RunExperiments([]string{id}, cfg, b); err == nil {
				t.Errorf("%s accepted Threads: %d", id, threads)
			}
		}
		if _, _, err := TraceCapture(SchemeLearnedFTL, cfg, b, 0); err == nil {
			t.Errorf("TraceCapture accepted Threads: %d", threads)
		}
	}
}

// listCase is one input of a comma-list knob and what it must resolve to
// (nil: an error).
type listCase[T any] struct {
	in   string
	want []T
}

// checkListKnob runs a knob's parser over its table.
func checkListKnob[T any](t *testing.T, parse func(string) ([]T, error), cases []listCase[T]) {
	t.Helper()
	for _, c := range cases {
		got, err := parse(c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%q: accepted as %v, want an error", c.in, got)
		case c.want != nil && err != nil:
			t.Errorf("%q: %v", c.in, err)
		case c.want != nil && !reflect.DeepEqual(got, c.want):
			t.Errorf("%q: got %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGCPoliciesKnob(t *testing.T) {
	parse := func(s string) ([]GCPolicy, error) { return Budget{GCPolicies: s}.gcPolicyList() }
	checkListKnob(t, parse, []listCase[GCPolicy]{
		{"", GCPolicies()},
		{"costage", []GCPolicy{GCCostAgeTimes}},
		{" greedy , costbenefit ", []GCPolicy{GCGreedy, GCCostBenefit}},
		{"greedy,costbenfit", nil}, // typo
		{"greedy,,costage", nil},   // empty element
		{"greedy,", nil},           // trailing comma
		{" ", nil},                 // a lone blank is an empty element, not the default
		{"Greedy", nil},            // policy names are case-sensitive
	})
	// gcsweep rejects a typo'd list rather than sweeping the default set.
	b := sweepTestBudget(1)
	b.GCPolicies = "gready"
	if _, err := RunExperiments([]string{"gcsweep"}, TinyConfig(), b); err == nil {
		t.Fatal("gcsweep accepted a typo'd policy list")
	}
}

func TestFaultSchemesKnob(t *testing.T) {
	parse := func(s string) ([]Scheme, error) { return Budget{FaultSchemes: s}.faultSchemeList() }
	checkListKnob(t, parse, []listCase[Scheme]{
		{"", Schemes()},
		{"dftl,IDEAL", []Scheme{SchemeDFTL, SchemeIdeal}}, // case-insensitive
		{" LearnedFTL ,leaftl", []Scheme{SchemeLearnedFTL, SchemeLeaFTL}},
		{"dftl,tpfl", nil}, // typo
		{"dftl,,ideal", nil},
		{",dftl", nil},
	})
}

func TestFleetPlacementKnob(t *testing.T) {
	parse := func(s string) ([]FleetPolicy, error) { return Budget{FleetPlacement: s}.fleetPolicyList() }
	checkListKnob(t, parse, []listCase[FleetPolicy]{
		{"", FleetPolicies()},
		{"striping,hash", []FleetPolicy{FleetStriping, FleetHash}},
		{" replicate ", []FleetPolicy{FleetReplicate}},
		{"striping,hsah", nil}, // typo
		{"striping,,hash", nil},
		{"hash,", nil},
		{"Hash", nil}, // policy names are case-sensitive
	})
}
