package learnedftl

import (
	"math"
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
		b := TinyBudget()
		b.Threads = threads
		for _, id := range ExperimentIDs() {
			if _, err := RunExperiments([]string{id}, cfg, b); err == nil {
				t.Errorf("%s accepted Threads: %d", id, threads)
			}
		}
		if _, _, err := TraceCapture(SchemeLearnedFTL, cfg, b); err == nil {
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
		{"crashsweep", "CrashFuzz -1", func(b *Budget) { b.CrashFuzz = -1 }},
		{"scale", "ScaleMaxGiB -1", func(b *Budget) { b.ScaleMaxGiB = -1 }},
		{"scale", "ScaleMinGiB -1", func(b *Budget) { b.ScaleMinGiB = -1 }},
		{"table2", "TraceScale NaN", func(b *Budget) { b.TraceScale = nan }},
		{"table2", "TraceScale -0.5", func(b *Budget) { b.TraceScale = -0.5 }},
		{"table2", "TraceScale +Inf", func(b *Budget) { b.TraceScale = math.Inf(1) }},
		{"fig6", "WarmExtra -3", func(b *Budget) { b.WarmExtra = -3 }},
		{"fig2", "Requests -1", func(b *Budget) { b.Requests = -1 }},
	} {
		b := TinyBudget()
		c.set(&b)
		if _, err := RunExperiments([]string{c.id}, TinyConfig(), b); err == nil {
			t.Errorf("%s accepted %s", c.id, c.knob)
		}
	}
}
