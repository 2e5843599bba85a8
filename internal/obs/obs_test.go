package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"learnedftl/internal/nand"
)

// Histogram buckets must be monotone, cover the full int64 range and keep
// the documented <=12.5% relative error (bucket lower bound vs value).
func TestHistBucket(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000,
		40000, 200000, 2000000, 1 << 40, 1<<62 + 1} {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("histBucket not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		lo := histValue(b)
		if lo > v {
			t.Fatalf("histValue(%d)=%d exceeds original %d", b, lo, v)
		}
		if v >= 8 && float64(v-lo)/float64(v) > 0.20 {
			t.Fatalf("bucket error for %d: lower bound %d off by >20%%", v, lo)
		}
	}
	if histBucket(-5) != 0 {
		t.Fatalf("negative values must land in bucket 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 {
		t.Fatalf("empty histogram percentile must be 0")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	p50, p999 := h.Percentile(50), h.Percentile(99.9)
	if p50 < 400 || p50 > 500 {
		t.Fatalf("p50 = %d, want ~500 (<=12.5%% low)", p50)
	}
	if p999 < 875 || p999 > 1000 {
		t.Fatalf("p99.9 = %d, want ~999 (<=12.5%% low)", p999)
	}
	if p999 < p50 {
		t.Fatalf("percentiles not monotone: p99.9 %d < p50 %d", p999, p50)
	}
}

// Every span's phases must sum exactly to its total: PhaseData is the
// residual and negative residuals are clamped.
func TestSpanResidual(t *testing.T) {
	tr := NewTracer()
	tr.BeginReq(false, 100, 25) // queue wait 25
	tr.AddPhase(PhaseLookup, 10)
	tr.AddPhase(PhaseTrans, 40)
	tr.EndReq(300) // total = 300-100+25 = 225

	if got := tr.Requests(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
	b := tr.Breakdown()
	if b.TotalSum != 225 {
		t.Fatalf("total = %d, want 225", b.TotalSum)
	}
	var sum nand.Time
	for p := Phase(0); p < NumPhases; p++ {
		sum += b.PhaseSum[p]
	}
	if sum != b.TotalSum {
		t.Fatalf("phase sum %d != total %d", sum, b.TotalSum)
	}
	if b.PhaseSum[PhaseData] != 225-25-10-40 {
		t.Fatalf("residual data phase = %d, want 150", b.PhaseSum[PhaseData])
	}

	// Over-attribution (wall-clock-overlapping op time) must normalize so
	// the phases still sum exactly to the total.
	tr2 := NewTracer()
	tr2.BeginReq(true, 0, 0)
	tr2.AddPhase(PhaseGCStall, 300)
	tr2.AddPhase(PhaseTrans, 100)
	tr2.EndReq(100)
	b2 := tr2.Breakdown()
	if b2.PhaseSum[PhaseGCStall] != 75 || b2.PhaseSum[PhaseTrans] != 25 {
		t.Fatalf("normalized phases = gc %d trans %d, want 75/25",
			b2.PhaseSum[PhaseGCStall], b2.PhaseSum[PhaseTrans])
	}
	if b2.PhaseSum[PhaseData] != 0 || b2.TotalSum != 100 {
		t.Fatalf("normalized residual/total = %d/%d, want 0/100",
			b2.PhaseSum[PhaseData], b2.TotalSum)
	}
}

// Nested GC windows (pool GC inside a collection finalize) must attribute
// once, spanning the outermost window only.
func TestGCNesting(t *testing.T) {
	tr := NewTracer()
	tr.BeginReq(true, 0, 0)
	tr.EnterGC(false, 10)
	tr.EnterGC(false, 20)
	tr.ExitGC(30)
	if !tr.InGC() {
		t.Fatalf("still inside outer window")
	}
	tr.ExitGC(90)
	if tr.InGC() {
		t.Fatalf("window should be closed")
	}
	tr.EndReq(100)
	b := tr.Breakdown()
	if b.PhaseSum[PhaseGCStall] != 80 {
		t.Fatalf("gc stall = %d, want 80 (outermost window only)", b.PhaseSum[PhaseGCStall])
	}
	// Scrub windows never attribute to a request span.
	tr2 := NewTracer()
	tr2.BeginReq(false, 0, 0)
	tr2.EnterGC(true, 10)
	tr2.ExitGC(50)
	tr2.EndReq(100)
	if got := tr2.Breakdown().PhaseSum[PhaseGCStall]; got != 0 {
		t.Fatalf("scrub window attributed %d to gc stall, want 0", got)
	}
}

// The tail set must be the exact top ceil(0.1%) spans by total latency.
func TestBreakdownTail(t *testing.T) {
	tr := NewTracer()
	for i := 1; i <= 5000; i++ {
		tr.BeginReq(i%4 == 0, 0, 0)
		tr.EndReq(nand.Time(i))
	}
	b := tr.Breakdown()
	if b.TailCount != 5 {
		t.Fatalf("tail count = %d, want 5", b.TailCount)
	}
	if b.TailSum != 5000+4999+4998+4997+4996 {
		t.Fatalf("tail sum = %d, want the five largest totals", b.TailSum)
	}
	if b.Requests != 5000 || b.Writes != 1250 || b.Reads != 3750 {
		t.Fatalf("counts = %d/%d/%d", b.Requests, b.Reads, b.Writes)
	}
	cause, share := b.TailCause()
	if cause != PhaseData || share != 1 {
		t.Fatalf("tail cause = %s %.2f, want data 1.00", cause, share)
	}
}

// ObserveOp attribution: translation reads charge PhaseTrans, retries
// PhaseRetry, and chip-busy wait behind a scrub relocation PhaseScrubWait.
// Ops inside a GC window attribute nothing (the window carries the time).
func TestObserveOpAttribution(t *testing.T) {
	tr := NewTracer()
	tr.BeginReq(false, 0, 0)
	tr.ObserveOp(nand.FlashOp{Op: nand.OpRead, Kind: nand.OpTranslation,
		Chip: 0, After: 100, Start: 110, Done: 160, Retry: 20})
	tr.ObserveOp(nand.FlashOp{Op: nand.OpRead, Kind: nand.OpHostData,
		Chip: 0, After: 160, Start: 160, Done: 200, Retry: 5})
	tr.EndReq(200)
	b := tr.Breakdown()
	if b.PhaseSum[PhaseTrans] != 160-100-20 {
		t.Fatalf("trans = %d, want 40", b.PhaseSum[PhaseTrans])
	}
	if b.PhaseSum[PhaseRetry] != 25 {
		t.Fatalf("retry = %d, want 25", b.PhaseSum[PhaseRetry])
	}

	// Scrub-wait: a scrub-window op marks the chip; the next host op's
	// Start-After gap on that chip is scrub interference.
	tr2 := NewTracer()
	tr2.EnterGC(true, 0)
	tr2.ObserveOp(nand.FlashOp{Op: nand.OpRead, Kind: nand.OpGC,
		Chip: 3, After: 0, Start: 0, Done: 50})
	tr2.ExitGC(50)
	tr2.BeginReq(false, 50, 0)
	tr2.ObserveOp(nand.FlashOp{Op: nand.OpRead, Kind: nand.OpHostData,
		Chip: 3, After: 50, Start: 80, Done: 120})
	tr2.EndReq(120)
	if got := tr2.Breakdown().PhaseSum[PhaseScrubWait]; got != 30 {
		t.Fatalf("scrub wait = %d, want 30", got)
	}

	// Inside a (non-scrub) GC window, per-op attribution is suppressed.
	tr3 := NewTracer()
	tr3.BeginReq(true, 0, 0)
	tr3.EnterGC(false, 0)
	tr3.ObserveOp(nand.FlashOp{Op: nand.OpRead, Kind: nand.OpTranslation,
		Chip: 0, After: 0, Start: 0, Done: 40})
	tr3.ExitGC(40)
	tr3.EndReq(100)
	if got := tr3.Breakdown().PhaseSum[PhaseTrans]; got != 0 {
		t.Fatalf("GC-internal translation attributed %d, want 0", got)
	}
}

func TestRegistryTickAndDecimation(t *testing.T) {
	r := NewRegistry(10, 8)
	var v int64
	r.Register("v", func() int64 { return v })
	for now := nand.Time(10); now <= 200; now += 10 {
		v = int64(now)
		r.Tick(now)
	}
	s := r.Series()
	if len(s) != 1 || s[0].Name != "v" {
		t.Fatalf("series = %+v", s)
	}
	if len(s[0].Samples) >= 8 {
		t.Fatalf("series not bounded: %d samples, cap 8", len(s[0].Samples))
	}
	prev := nand.Time(-1)
	for _, p := range s[0].Samples {
		if p.T <= prev {
			t.Fatalf("sample times not increasing: %d after %d", p.T, prev)
		}
		prev = p.T
	}
	// A huge virtual-time jump must stay bounded (interval doubling), not
	// loop once per original interval.
	r.Tick(1 << 40)
	if n := len(r.Series()[0].Samples); n >= 8 {
		t.Fatalf("series unbounded after large gap: %d samples", n)
	}
}

func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.add(nand.Time(i*100), 50, int32(i%2), evRead)
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4/2", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			spans++
			// Oldest two events (ts 0, 100) were overwritten.
			if ts := ev["ts"].(float64); ts < 0.2 {
				t.Fatalf("overwritten event survived: ts=%v", ts)
			}
		}
	}
	if spans != 4 {
		t.Fatalf("span events = %d, want 4", spans)
	}
}

func TestTraceJSONTracks(t *testing.T) {
	tr := NewTracer()
	tr.EnableTrace(64)
	tr.ObserveOp(nand.FlashOp{Op: nand.OpProgram, Kind: nand.OpHostData,
		Chip: 2, After: 0, Start: 0, Done: 200000})
	tr.EnterGC(false, 200000)
	tr.ExitGC(400000)
	var buf bytes.Buffer
	if err := tr.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	names := map[string]bool{}
	meta := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			meta++
			continue
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"program", "gc"} {
		if !names[want] {
			t.Fatalf("missing %q event in %v", want, names)
		}
	}
	if meta != 2 { // chip 2, gc track
		t.Fatalf("thread-name metadata events = %d, want 2", meta)
	}
}
