package learnedftl

// The root-level observability surface: the latbreak experiment (per-scheme
// latency decomposed by phase — the paper's translation-overhead claim
// measured instead of inferred), the standard metrics registry every traced
// run carries, and the single-device trace capture behind ftlbench -trace.

import (
	"fmt"
	"io"

	"learnedftl/internal/ftl"
	"learnedftl/internal/obs"
	"learnedftl/internal/workload"
)

// Re-exported observability types (see internal/obs).
type (
	// Tracer accumulates per-request latency attribution spans; attach one
	// with AttachTracer before a measured run and read Breakdown() after.
	Tracer = obs.Tracer
	// Breakdown is the frozen aggregate: per-phase latency sums, P99.9,
	// and the exact decomposition of the P99.9 tail set.
	Breakdown = obs.Breakdown
	// Phase is one component of a request's latency decomposition.
	Phase = obs.Phase
	// MetricSeries is one sampled metric of the registry.
	MetricSeries = obs.MetricSeries
	// Trace is the bounded virtual-time event ring exported as Chrome
	// trace-event JSON (Perfetto-viewable).
	Trace = obs.Trace
	// Registry samples named counters/gauges on a virtual-time ticker.
	Registry = obs.Registry
)

// The span phases (see internal/obs for their exact attribution rules).
const (
	PhaseQueue     = obs.PhaseQueue
	PhaseLookup    = obs.PhaseLookup
	PhaseTrans     = obs.PhaseTrans
	PhaseGCStall   = obs.PhaseGCStall
	PhaseRetry     = obs.PhaseRetry
	PhaseScrubWait = obs.PhaseScrubWait
	PhaseData      = obs.PhaseData
	NumPhases      = obs.NumPhases
)

// NewTracer returns an aggregation-only tracer; EnableTrace / SetRegistry
// add the trace ring and the metrics ticker.
func NewTracer() *Tracer { return obs.NewTracer() }

// AttachTracer wires a tracer into a device: the engines, FTL layers, GC
// and flash array all feed it. nil detaches, restoring the unobserved hot
// paths exactly — golden tables are byte-identical with no tracer attached.
func AttachTracer(f FTL, tr *Tracer) { ftl.AttachTracer(f, tr) }

// StandardRegistry registers the standard metric set over a device into a
// fresh registry: host and flash op counts, GC activity and running write
// amplification (×1000), each sampled on the tracer's virtual-time ticker.
func StandardRegistry(f FTL) *Registry {
	reg := obs.NewRegistry(obs.DefaultSampleInterval, obs.DefaultSeriesCap)
	col, fl := f.Collector(), f.Flash()
	reg.Register("host_reads", func() int64 { return col.HostReads })
	reg.Register("host_writes", func() int64 { return col.HostWrites })
	reg.Register("flash_reads", func() int64 {
		c := fl.Counters()
		return c.TotalReads()
	})
	reg.Register("flash_programs", func() int64 {
		c := fl.Counters()
		return c.TotalPrograms()
	})
	reg.Register("gc_count", func() int64 { return col.GCCount })
	reg.Register("wa_milli", func() int64 {
		if col.HostWritePages == 0 {
			return 0
		}
		c := fl.Counters()
		return c.TotalPrograms() * 1000 / col.HostWritePages
	})
	return reg
}

// ObsCell is one latbreak measurement in the BENCH JSON: a scheme ×
// pattern cell's full phase breakdown.
type ObsCell struct {
	FTL       string    `json:"ftl"`
	Pattern   string    `json:"pattern"`
	Breakdown Breakdown `json:"breakdown"`
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
		tr := NewTracer()
		tr.SetRegistry(StandardRegistry(f))
		AttachTracer(f, tr)
		rep := measureFIO(f, p, b.Threads, 1, b.Requests)
		AttachTracer(f, nil)
		bd := rep.Obs
		if bd == nil {
			return fmt.Errorf("latbreak: %s/%s produced no breakdown", s, p)
		}
		cause, share := bd.TailCause()
		c.row(f.Name(), p.String(),
			lat(bd.Mean()),
			lat(bd.PhaseMean(PhaseLookup)),
			lat(bd.PhaseMean(PhaseTrans)),
			lat(bd.PhaseMean(PhaseGCStall)),
			lat(bd.PhaseMean(PhaseData)),
			lat(bd.P999),
			lat(bd.TailMean()),
			fmt.Sprintf("%s %.0f%%", cause, share*100))
		c.obs = append(c.obs, ObsCell{FTL: f.Name(), Pattern: p.String(), Breakdown: *bd})
	}
	return nil
}

// TraceCapture warms one device, attaches a tracer with a capEvents-bounded
// trace ring and the standard registry, runs the measured closed-loop mixed
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
		tr := NewTracer()
		tr.EnableTrace(capEvents)
		tr.SetRegistry(StandardRegistry(f))
		AttachTracer(f, tr)
		half := max(1, b.Requests/2)
		measureFIO(f, workload.RandRead, b.Threads, 1, half)
		rep := measureFIO(f, workload.RandWrite, b.Threads, 1, half)
		AttachTracer(f, nil)
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
