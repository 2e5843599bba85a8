package learnedftl

import (
	"math"
	"reflect"
	"testing"

	"learnedftl/internal/fleet"
	"learnedftl/internal/gc"
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

// TestAbsurdKnobIsAnError: a NaN, infinite or negative narrowing knob is an
// error, not a silent fall-back to the knob's default ladder; so is a NaN,
// infinite or negative size (trace scale, warm-up, requests), not a table
// of NaNs or of an unwarmed device.
func TestAbsurdKnobIsAnError(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		id, knob string
		set      func(*Budget)
	}{
		{"faultsweep", "FaultBER NaN", func(b *Budget) { b.FaultBER = nan }},
		{"faultsweep", "FaultBER -1", func(b *Budget) { b.FaultBER = -1 }},
		{"faultsweep", "FaultBER +Inf", func(b *Budget) { b.FaultBER = math.Inf(1) }},
		{"gcsweep", "OPRatio -0.5", func(b *Budget) { b.OPRatio = -0.5 }},
		{"gcsweep", "OPRatio NaN", func(b *Budget) { b.OPRatio = nan }},
		{"crashsweep", "CrashStride -5", func(b *Budget) { b.CrashStride = -5 }},
		{"crashsweep", "CrashFuzz -1", func(b *Budget) { b.CrashFuzz = -1 }},
		{"scale", "ScaleMaxGiB -1", func(b *Budget) { b.ScaleMaxGiB = -1 }},
		{"scale", "ScaleMinGiB -1", func(b *Budget) { b.ScaleMinGiB = -1 }},
		{"table2", "TraceScale NaN", func(b *Budget) { b.TraceScale = nan }},
		{"table2", "TraceScale -0.5", func(b *Budget) { b.TraceScale = -0.5 }},
		{"table2", "TraceScale +Inf", func(b *Budget) { b.TraceScale = math.Inf(1) }},
		{"fig6", "WarmExtra -3", func(b *Budget) { b.WarmExtra = -3 }},
		{"fig2", "Requests -1", func(b *Budget) { b.Requests = -1 }},
	} {
		b := goldenBudget(c.id, TinyConfig(), 2)
		c.set(&b)
		if _, err := RunExperiments([]string{c.id}, TinyConfig(), b); err == nil {
			t.Errorf("%s accepted %s", c.id, c.knob)
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
		{"costage", []GCPolicy{gc.CostAgeTimes}},
		{" greedy , costbenefit ", []GCPolicy{gc.Greedy, gc.CostBenefit}},
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
	parse := func(s string) ([]fleet.Policy, error) { return Budget{FleetPlacement: s}.fleetPolicyList() }
	checkListKnob(t, parse, []listCase[fleet.Policy]{
		{"", fleet.Policies()},
		{"striping,hash", []fleet.Policy{fleet.Striping, fleet.Hash}},
		{" replicate ", []fleet.Policy{fleet.Replicate}},
		{"striping,hsah", nil}, // typo
		{"striping,,hash", nil},
		{"hash,", nil},
		{"Hash", nil}, // policy names are case-sensitive
	})
}
