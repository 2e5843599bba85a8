package learnedftl

// The root-level observability surface: the latbreak experiment (per-scheme
// latency decomposed by phase — the paper's translation-overhead claim
// measured instead of inferred) and the single-device trace capture behind
// ftlbench -trace.

import (
	"fmt"
	"io"

	"learnedftl/internal/ftl"
	"learnedftl/internal/obs"
	"learnedftl/internal/workload"
)

// Trace is the bounded virtual-time event ring TraceCapture returns, exported
// as Chrome trace-event JSON (Perfetto-viewable) by WriteTrace.
type Trace = obs.Trace

// ObsCell is one latbreak measurement in the BENCH JSON: a scheme ×
// pattern cell's full phase breakdown.
type ObsCell struct {
	FTL       string        `json:"ftl"`
	Pattern   string        `json:"pattern"`
	Breakdown obs.Breakdown `json:"breakdown"`
}

// latBreakPatterns are the workloads latbreak decomposes: the read pattern
// carries the paper's translation-overhead story, the write pattern the
// GC-stall story.
var latBreakPatterns = []workload.Pattern{workload.RandRead, workload.RandWrite}

// latBreakCell measures, for one scheme × every pattern, mean and P99.9
// latency decomposed by phase — where each request's time actually went:
// DRAM lookup compute, translation-page flash traffic, foreground-GC
// stalls and raw data time. Closed-loop (saturation) measurement with
// single-page requests, so each span's phases sum exactly to its latency.
// The "tail" column names the dominant attributed phase of the P99.9 tail
// set — the one-line answer to why a scheme's tail is slow.
func latBreakCell(c *cell, s Scheme, cfg Config, b Budget) error {
	f, err := c.warmed(s, cfg)
	if err != nil {
		return err
	}
	for _, p := range latBreakPatterns {
		tr := obs.NewTracer()
		ftl.AttachTracer(f, tr)
		rep := measureFIO(f, p, b.Threads, 1, b.Requests)
		ftl.AttachTracer(f, nil)
		bd := rep.Obs
		if bd == nil {
			return fmt.Errorf("latbreak: %s/%s produced no breakdown", s, p)
		}
		cause, share := bd.TailCause()
		c.row(f.Name(), p.String(),
			lat(bd.Mean()),
			lat(bd.PhaseMean(obs.PhaseLookup)),
			lat(bd.PhaseMean(obs.PhaseTrans)),
			lat(bd.PhaseMean(obs.PhaseGCStall)),
			lat(bd.PhaseMean(obs.PhaseData)),
			lat(bd.P999),
			lat(bd.TailMean()),
			fmt.Sprintf("%s %.0f%%", cause, share*100))
		c.obs = append(c.obs, ObsCell{FTL: f.Name(), Pattern: p.String(), Breakdown: *bd})
	}
	return nil
}

// TraceCapture warms one device, attaches a tracer with a capEvents-bounded
// trace ring, runs the measured closed-loop mixed
// workload (random reads then random writes, half the budget each), and
// returns the trace for export plus a one-row summary table. This is the
// engine behind ftlbench -trace; it runs as a one-cell sweep, so it rejects
// the budgets the experiments reject.
func TraceCapture(s Scheme, cfg Config, b Budget, capEvents int) (trace *Trace, tab Table, err error) {
	err = runCells(b, 1, func(int) error {
		f, err := (&cell{b: b}).warmed(s, cfg)
		if err != nil {
			return err
		}
		tr := obs.NewTracer()
		tr.EnableTrace(capEvents)
		ftl.AttachTracer(f, tr)
		half := max(1, b.Requests/2)
		measureFIO(f, workload.RandRead, b.Threads, 1, half)
		rep := measureFIO(f, workload.RandWrite, b.Threads, 1, half)
		ftl.AttachTracer(f, nil)
		trace = tr.Trace()
		bd := tr.Breakdown()
		tab = Table{
			Title:  fmt.Sprintf("Trace capture: %s, %d requests (writes half)", f.Name(), bd.Requests),
			Header: []string{"FTL", "requests", "events", "dropped", "mean", "p99.9", "GC"},
			Rows: [][]string{{
				f.Name(),
				fmt.Sprintf("%d", bd.Requests),
				fmt.Sprintf("%d", trace.Len()),
				fmt.Sprintf("%d", trace.Dropped()),
				lat(bd.Mean()),
				lat(bd.P999),
				fmt.Sprintf("%d", rep.GCCount),
			}},
		}
		return nil
	})
	return trace, tab, err
}

// WriteTrace exports a captured trace as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteTrace(t *Trace, w io.Writer) error { return t.WriteJSON(w) }
