package main

import (
	"encoding/json"
	"os"
	"time"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// This file is the benchmark's host-time tracer. Every span is recorded
// from outside the program under test, around calls into a layer's public
// functions: the FTL decorator times ReadPages/WritePages/TrimPages, the
// generator decorator times Next, and the runner opens spans around the
// engine calls, persistence and report building. The tracer runs on the
// benchmark's single goroutine, so open spans form a stack.

// keepPerCall bounds how many per-request spans (generator + FTL calls) of
// one engine call are kept for the span file. Totals cover every span; the
// file holds every coarse span and the first keepPerCall per-request spans
// of each engine call, which bounds it at a few MB whatever the run length.
const keepPerCall = 512

// spanRec is one kept span, as written to the span file. Times are host
// nanoseconds since the tracer started; Parent indexes the file's span
// array (-1 for a root); Req is the request the span served (0 for none).
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
}

// spanAgg is the running total of every span of one name.
type spanAgg struct {
	count int64
	total int64 // ns between begin and end
	self  int64 // total minus the part child spans covered
	units int64 // pages, bytes or requests handed to end
}

func (a spanAgg) sub(b spanAgg) spanAgg {
	return spanAgg{a.count - b.count, a.total - b.total, a.self - b.self, a.units - b.units}
}

func (a spanAgg) add(b spanAgg) spanAgg {
	return spanAgg{a.count + b.count, a.total + b.total, a.self + b.self, a.units + b.units}
}

type frame struct {
	id    int
	start int64
	child int64
	rec   int32 // index of the kept span, or -1
}

// reqKey identifies a generated request until the FTL call that serves it:
// the engines hand the decorators no request handle, and the open-loop
// engine fetches a stream's next request long before it issues it.
type reqKey struct {
	lpn   int64
	pages int
	write bool
	trim  bool
}

type tracer struct {
	base  time.Time
	names []string
	ids   map[string]int
	agg   []spanAgg
	stack []frame
	spans []spanRec

	keep    int // per-request spans still to keep in the current engine call
	nextReq int64
	reqOf   map[reqKey]int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: map[string]int{}, reqOf: map[reqKey]int64{}}
}

// id interns a span name; hot paths hold the id.
func (t *tracer) id(name string) int {
	if i, ok := t.ids[name]; ok {
		return i
	}
	i := len(t.names)
	t.ids[name] = i
	t.names = append(t.names, name)
	t.agg = append(t.agg, spanAgg{})
	return i
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// parentRec returns the nearest open span that is kept.
func (t *tracer) parentRec() int32 {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].rec >= 0 {
			return t.stack[i].rec
		}
	}
	return -1
}

// begin opens a coarse span, always kept.
func (t *tracer) begin(id int) {
	rec := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: t.names[id], Parent: t.parentRec()})
	now := t.now()
	t.spans[rec].Start = now
	t.stack = append(t.stack, frame{id: id, start: now, rec: rec})
}

// beginReq opens a per-request span, kept only inside the keep window.
func (t *tracer) beginReq(id int, req int64) {
	rec := int32(-1)
	if t.keep > 0 {
		t.keep--
		rec = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{Name: t.names[id], Parent: t.parentRec(), Req: req})
	}
	now := t.now()
	if rec >= 0 {
		t.spans[rec].Start = now
	}
	t.stack = append(t.stack, frame{id: id, start: now, rec: rec})
}

// end closes the innermost span and returns its duration in ns.
func (t *tracer) end(units int64) int64 {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	a := &t.agg[f.id]
	a.count++
	a.total += d
	a.self += d - f.child
	a.units += units
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.rec >= 0 {
		t.spans[f.rec].End = now
	}
	return d
}

// get returns the running total of one span name.
func (t *tracer) get(name string) spanAgg { return t.agg[t.id(name)] }

// startCall opens the keep window of one engine call; endCall shuts it.
func (t *tracer) startCall() {
	t.keep = keepPerCall
	clear(t.reqOf)
}

func (t *tracer) endCall() { t.keep = 0 }

// spanCost measures what one empty span costs the traced run, in ns.
func (t *tracer) spanCost() float64 {
	const n = 200000
	id := t.id("host.span_cost")
	t.keep = 0
	start := time.Now()
	for i := 0; i < n; i++ {
		t.beginReq(id, 0)
		t.end(0)
	}
	return float64(time.Since(start)) / n
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Note  string    `json:"note"`
		Spans []spanRec `json:"spans"`
	}{
		Note:  "host ns since tracer start; parent indexes spans; per-request spans are kept for the first requests of each engine call only",
		Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedFTL times the three request entry points of a device. Everything
// else — Collector, Flash, Config, Name — reaches the device through the
// embedded interface, and BackgroundGC is forwarded so the open-loop
// engine's idle-gap collection runs exactly as it does undecorated.
type tracedFTL struct {
	device
	tr             *tracer
	rd, wr, trm, b int
}

func traceFTL(dev device, key string, tr *tracer) *tracedFTL {
	p := key + "/"
	return &tracedFTL{
		device: dev, tr: tr,
		rd: tr.id(p + "ftl.ReadPages"), wr: tr.id(p + "ftl.WritePages"),
		trm: tr.id(p + "ftl.TrimPages"), b: tr.id(p + "ftl.BackgroundGC"),
	}
}

// reqFor resolves the request a call serves, inside the keep window only.
func (f *tracedFTL) reqFor(k reqKey) int64 {
	if f.tr.keep == 0 {
		return 0
	}
	id := f.tr.reqOf[k]
	delete(f.tr.reqOf, k)
	return id
}

func (f *tracedFTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	f.tr.beginReq(f.rd, f.reqFor(reqKey{lpn: lpn, pages: n}))
	done := f.device.ReadPages(lpn, n, now)
	f.tr.end(int64(n))
	return done
}

func (f *tracedFTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	f.tr.beginReq(f.wr, f.reqFor(reqKey{lpn: lpn, pages: n, write: true}))
	done := f.device.WritePages(lpn, n, now)
	f.tr.end(int64(n))
	return done
}

func (f *tracedFTL) TrimPages(lpn int64, n int, now nand.Time) nand.Time {
	f.tr.beginReq(f.trm, f.reqFor(reqKey{lpn: lpn, pages: n, trim: true}))
	done := f.device.TrimPages(lpn, n, now)
	f.tr.end(int64(n))
	return done
}

func (f *tracedFTL) BackgroundGC(start, deadline nand.Time) nand.Time {
	f.tr.beginReq(f.b, 0)
	done := f.device.BackgroundGC(start, deadline)
	f.tr.end(0)
	return done
}

var _ ftl.BackgroundCollector = (*tracedFTL)(nil)

// tracedGen times a generator's Next and numbers the requests it yields.
type tracedGen struct {
	gen sim.Generator
	tr  *tracer
	id  int
}

func (g *tracedGen) Next() (sim.Request, bool) {
	t := g.tr
	t.nextReq++
	t.beginReq(g.id, t.nextReq)
	req, ok := g.gen.Next()
	t.end(1)
	if ok && t.keep > 0 {
		pages := req.Pages
		if pages <= 0 && !req.Trim {
			pages = 1 // the engines normalise before calling the device
		}
		t.reqOf[reqKey{lpn: req.LPN, pages: pages, write: req.Write && !req.Trim, trim: req.Trim}] = t.nextReq
	}
	return req, ok
}

func traceGen(g sim.Generator, tr *tracer) sim.Generator {
	return &tracedGen{gen: g, tr: tr, id: tr.id("workload.Next")}
}
