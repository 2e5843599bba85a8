package learnedftl

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	ftlpkg "learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/obs"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// obsBudget is the tiny budget the observability tests run under.
func obsBudget() Budget {
	return Budget{Requests: 2000, WarmExtra: 1, Threads: 16}
}

// obsGens builds the measured-phase workload of the observability tests: a
// read-heavy random mix (1 write in 4) that exercises CMT hits and misses,
// model predictions, translation write-backs and GC.
func obsGens(lp int64) []sim.Generator {
	const threads, perThread = 8, 150
	gens := make([]sim.Generator, threads)
	for th := 0; th < threads; th++ {
		rng := rand.New(rand.NewSource(31 + int64(th)*7919))
		issued := 0
		gens[th] = sim.GenFunc(func() (sim.Request, bool) {
			if issued >= perThread {
				return sim.Request{}, false
			}
			issued++
			return sim.Request{
				Write: rng.Intn(4) == 0,
				LPN:   rng.Int63n(lp),
				Pages: 1,
			}, true
		})
	}
	return gens
}

// obsWarm builds the warm-up generators (fresh per run — generators are
// stateful).
func obsWarm(lp int64) []sim.Generator {
	return workload.Warmup(lp, 1, 64, 1)
}

// runObsReference runs the untraced reference: warm-up, then a measured
// run, returning the final device plus both results.
func runObsReference(t *testing.T, s Scheme) (FTL, RunResult, RunResult) {
	t.Helper()
	f, err := New(s, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lp := f.Config().LogicalPages()
	warm := sim.Warmed(f, obsWarm(lp), 0)
	run := sim.Run(f, obsGens(lp), 0)
	return f, warm, run
}

// sumPhases folds a breakdown's phase sums.
func sumPhases(b obs.Breakdown) nand.Time {
	var sum nand.Time
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		sum += b.PhaseSum[p]
	}
	return sum
}

// TestObsGoldenEquivalence is the observability layer's acceptance pin:
// attaching a tracer (with trace ring and registry) must not perturb the
// simulation. For every scheme, a traced run leaves the device
// byte-identical to the untraced reference with identical results and
// report numbers, and its breakdown accounts for every request.
func TestObsGoldenEquivalence(t *testing.T) {
	for _, s := range Schemes() {
		// Untraced reference.
		fa, warmA, runA := runObsReference(t, s)
		snapA, err := SnapshotDevice(fa)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", s, err)
		}
		repA := report(fa, runA)

		// Traced run: same device bytes, same report, plus a
		// self-consistent breakdown.
		fb, err := New(s, TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		lp := fb.Config().LogicalPages()
		trSeq := obs.NewTracer()
		trSeq.EnableTrace(1 << 16)
		ftlpkg.AttachTracer(fb, trSeq)
		warmB := sim.Warmed(fb, obsWarm(lp), 0)
		runB := sim.Run(fb, obsGens(lp), 0)
		ftlpkg.AttachTracer(fb, nil)

		if warmA != warmB || runA != runB {
			t.Fatalf("%s: traced results diverged: %+v/%+v vs %+v/%+v",
				s, warmB, runB, warmA, runA)
		}
		snapB, err := SnapshotDevice(fb)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", s, err)
		}
		if !bytes.Equal(snapA, snapB) {
			t.Fatalf("%s: tracing perturbed the device (%d vs %d bytes)",
				s, len(snapB), len(snapA))
		}
		if repB := report(fb, runB); !reflect.DeepEqual(repA, repB) {
			t.Fatalf("%s: tracing perturbed the report:\n%+v\n%+v", s, repB, repA)
		}

		bdSeq := trSeq.Breakdown()
		if bdSeq.Requests != runB.Requests {
			t.Fatalf("%s: breakdown saw %d requests, run had %d",
				s, bdSeq.Requests, runB.Requests)
		}
		if got := sumPhases(bdSeq); got != bdSeq.TotalSum {
			t.Fatalf("%s: phase sums %d != total %d", s, got, bdSeq.TotalSum)
		}
		if trSeq.Trace().Len() == 0 {
			t.Fatalf("%s: traced run produced no trace events", s)
		}
	}
}

// TestObsDisabledZeroAlloc pins the disabled-path contract: with no tracer
// attached, the host read path must not allocate.
func TestObsDisabledZeroAlloc(t *testing.T) {
	f, err := New(SchemeLearnedFTL, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lp := f.Config().LogicalPages()
	sim.Warmed(f, obsWarm(lp), 0)
	var now nand.Time
	var lpn int64
	if a := testing.AllocsPerRun(2000, func() {
		now = f.ReadPages(lpn, 1, now)
		lpn = (lpn + 1) % 64
	}); a != 0 {
		t.Fatalf("untraced read path allocated %.2f times per request", a)
	}
}

// benchObsReads measures the host read path with and without a tracer.
func benchObsReads(b *testing.B, tr *obs.Tracer) {
	f, err := New(SchemeLearnedFTL, TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	lp := f.Config().LogicalPages()
	sim.Warmed(f, obsWarm(lp), 0)
	if tr != nil {
		ftlpkg.AttachTracer(f, tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var now nand.Time
	var lpn int64
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.BeginReq(false, now, 0)
		}
		done := f.ReadPages(lpn, 1, now)
		if tr != nil {
			tr.EndReq(done)
		}
		now = done
		lpn = (lpn + 7919) % lp
	}
}

func BenchmarkTraceOff(b *testing.B) { benchObsReads(b, nil) }

func BenchmarkTraceOn(b *testing.B) {
	tr := obs.NewTracer()
	tr.EnableTrace(1 << 16)
	benchObsReads(b, tr)
}

// TestTraceCaptureJSONValid runs the engine behind ftlbench -trace on a
// tiny device and asserts the export is valid Chrome trace-event JSON with
// chip tracks and a GC track.
func TestTraceCaptureJSONValid(t *testing.T) {
	trace, tab, err := TraceCapture(SchemeLearnedFTL, TinyConfig(), obsBudget())
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Fatalf("trace capture produced no events")
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("summary table rows = %d, want 1", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < trace.Len() {
		t.Fatalf("exported %d events, ring holds %d", len(doc.TraceEvents), trace.Len())
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("span event without dur: %v", ev)
			}
		case "M", "i":
		default:
			t.Fatalf("unexpected event phase %v", ev["ph"])
		}
	}
	if spans == 0 {
		t.Fatalf("no span events in export")
	}
}

// TestLatBreakP999IsTheCollectors: every latbreak cell's P99.9 is the
// collector's exact P99.9 of the same requests. Each cell is measured again
// on a device warmed as the experiment warms it, and its breakdown must
// equal the experiment's.
func TestLatBreakP999IsTheCollectors(t *testing.T) {
	b := sweepTestBudget(1)
	res, err := RunExperiments([]string{"latbreak"}, TinyConfig(), b)
	if err != nil {
		t.Fatal(err)
	}
	cells := res[0].Obs
	for _, s := range Schemes() {
		f, err := (&cell{b: b}).warmed(s, TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range latBreakPatterns {
			rep := latBreakRun(f, p, b)
			i := slices.IndexFunc(cells, func(c ObsCell) bool { return c.FTL == f.Name() && c.Pattern == p.String() })
			if i < 0 || !reflect.DeepEqual(cells[i].Breakdown, *rep.Obs) {
				t.Fatalf("%s/%s: no latbreak cell with this breakdown", f.Name(), p)
			}
			if rep.Obs.P999 != rep.P999 {
				t.Errorf("%s/%s: breakdown P99.9 %v, collector P99.9 %v", f.Name(), p, rep.Obs.P999, rep.P999)
			}
		}
	}
}

// TestLatBreakPhaseSums runs the latbreak experiment end to end and checks
// its acceptance invariant: every cell's phase sums add up exactly to its
// total latency sum (the breakdown explains 100% of measured time), and
// the cells ride along in the BenchResult for the BENCH JSON.
func TestLatBreakPhaseSums(t *testing.T) {
	res, err := RunExperiments([]string{"latbreak"}, TinyConfig(), obsBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	cells := res[0].Obs
	wantCells := len(Schemes()) * 2 // two patterns per scheme
	if len(cells) != wantCells {
		t.Fatalf("obs cells = %d, want %d", len(cells), wantCells)
	}
	if got := len(res[0].Table.Rows); got != wantCells {
		t.Fatalf("table rows = %d, want %d", got, wantCells)
	}
	for _, c := range cells {
		bd := c.Breakdown
		if bd.Requests == 0 {
			t.Fatalf("%s/%s: empty breakdown", c.FTL, c.Pattern)
		}
		if got := sumPhases(bd); got != bd.TotalSum {
			t.Fatalf("%s/%s: phase sums %d != total %d (breakdown must explain all time)",
				c.FTL, c.Pattern, got, bd.TotalSum)
		}
		// Per-phase means must reassemble the mean latency to within the
		// integer-division slack of obs.NumPhases nanoseconds.
		var meanSum nand.Time
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			meanSum += bd.PhaseMean(p)
		}
		if d := bd.Mean() - meanSum; d < 0 || d > nand.Time(obs.NumPhases) {
			t.Fatalf("%s/%s: phase means sum to %d, mean is %d",
				c.FTL, c.Pattern, meanSum, bd.Mean())
		}
	}
}
