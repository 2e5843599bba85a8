package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"learnedftl"
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
)

// Procedure, the same for every workload. Set-up builds each scheme's
// device (New, warm-up, pre-touch), snapshots it and restores it once; an
// untraced run does that setupPasses times and reports the median as
// setup_s. Every timed phase then starts from a restore of that snapshot,
// is one engine call on this goroutine, and is repeated in rounds — round 1
// of all five schemes, then round 2, ... — until -seconds of timed phases
// have run (at least minRounds), so that a slow stretch of the machine
// lands on every scheme alike; a scheme's host time is the median of its
// rounds. Restores, stream building, digests and output checks sit between
// the timed spans.

const (
	setupPasses = 3
	minRounds   = 2
)

type bench struct {
	cfg     ftl.Config
	spec    workloadSpec
	seed    int64
	seconds float64
	// shrink divides request counts, arrival rates and kernel sizes; the
	// benchmark runs at 1 and the package's tests at a few hundred.
	shrink int
	tr     *tracer // nil on an untraced run

	snaps map[string][]byte // warmed (and pre-touched) device per scheme

	state     map[string]*schemeState
	attempted int64
	failed    int64
	notes     []string // the first few check failures, for the reader
}

// schemeState is what the rounds leave behind for one scheme.
type schemeState struct {
	times    []float64 // host s of each untraced timed phase
	traced   []float64 // host s of each traced timed phase
	pages    int64     // host pages one phase completes
	requests int64
	digest   string
	alloc    uint64  // bytes allocated by one untraced phase
	rd, wr   spanAgg // FTL read and write calls of the traced phases

	// last repetition, kept for the final report and the recovery check
	dev device
	res sim.Result
	rep stats.Report
}

func newBench(cfg ftl.Config, spec workloadSpec, seed int64, seconds float64, traced bool, shrink int) *bench {
	b := &bench{
		cfg: cfg, spec: spec, seed: seed, seconds: seconds, shrink: shrink,
		snaps: map[string][]byte{}, state: map[string]*schemeState{},
	}
	if traced {
		b.tr = newTracer()
	}
	for _, s := range schemes {
		b.state[s.key] = &schemeState{}
	}
	return b
}

// fail counts n failed operations and keeps the first few reasons.
func (b *bench) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.failed += n
	if len(b.notes) < 8 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// span opens a coarse span on a traced run and returns its closer.
func (b *bench) span(name string) func(units int64) {
	if b.tr == nil {
		return func(int64) {}
	}
	b.tr.begin(b.tr.id(name))
	return func(units int64) { b.tr.end(units) }
}

// wrap decorates a device on a traced run.
func (b *bench) wrap(dev device, s scheme) ftl.FTL {
	if b.tr == nil {
		return dev
	}
	return traceFTL(dev, s.key, b.tr)
}

func (b *bench) newDevice(s scheme) (device, error) {
	f, err := learnedftl.New(s.id, b.cfg)
	if err != nil {
		return nil, err
	}
	dev, ok := f.(device)
	if !ok {
		return nil, fmt.Errorf("%s lacks crash recovery, state views or background GC", s.key)
	}
	return dev, nil
}

func (b *bench) restore(s scheme, snap []byte) (device, error) {
	end := b.span("persist.Restore")
	f, err := learnedftl.RestoreDevice(s.id, b.cfg, snap)
	end(int64(len(snap)))
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", s.key, err)
	}
	return f.(device), nil
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupScheme builds, snapshots and restores one scheme's device. It
// returns the wall time of that and the heap the warmed device holds; the
// two collections that measure the heap are outside the time.
func (b *bench) setupScheme(s scheme) (elapsed time.Duration, live uint64, err error) {
	end := b.span("setup/" + s.key)
	defer end(0)
	before := heapAlloc()
	t0 := time.Now()
	dev, err := b.newDevice(s)
	if err != nil {
		return 0, 0, err
	}
	f := b.wrap(dev, s)
	warmUp(f)
	if b.spec.pretouch {
		b.preTouch(f, b.cfg.LogicalPages()/b.spec.hotDiv)
	}
	elapsed = time.Since(t0)
	if after := heapAlloc(); after > before {
		live = after - before
	}

	t0 = time.Now()
	endSnap := b.span("persist.Snapshot")
	snap, err := learnedftl.SnapshotDevice(dev)
	endSnap(int64(len(snap)))
	if err != nil {
		return 0, 0, err
	}
	if _, err := b.restore(s, snap); err != nil {
		return 0, 0, err
	}
	elapsed += time.Since(t0)
	b.snaps[s.key] = snap
	return elapsed, live, nil
}

// setup runs the set-up passes and returns the median pass time in seconds
// and the median summed live heap in MiB.
func (b *bench) setup() (setupS, heapMiB float64, err error) {
	passes := setupPasses
	if b.tr != nil {
		passes = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	var times, heaps []float64
	for p := 0; p < passes; p++ {
		var total time.Duration
		var live uint64
		for _, s := range schemes {
			el, l, err := b.setupScheme(s)
			if err != nil {
				return 0, 0, err
			}
			total += el
			live += l
		}
		times = append(times, total.Seconds())
		heaps = append(heaps, float64(live)/(1<<20))
	}
	return median(times), median(heaps), nil
}

// phase runs one timed phase of one scheme and checks what it left.
func (b *bench) phase(s scheme, traced bool) error {
	st := b.state[s.key]
	dev, err := b.restore(s, b.snaps[s.key])
	if err != nil {
		return err
	}
	l := b.newLoad(s)
	var f ftl.FTL = dev
	if traced {
		f = traceFTL(dev, s.key, b.tr)
		for i := range l.gens {
			l.gens[i] = traceGen(l.gens[i], b.tr)
		}
		for i := range l.streams {
			l.streams[i].Gen = traceGen(l.streams[i].Gen, b.tr)
		}
	}

	// Collect what the restore, the load and earlier phases left behind, so
	// that no scheme's timed span pays for another's garbage.
	runtime.GC()
	var m0, m1 runtime.MemStats
	var res sim.Result
	if traced {
		rdName, wrName := s.key+"/ftl.ReadPages", s.key+"/ftl.WritePages"
		rd0, wr0 := b.tr.get(rdName), b.tr.get(wrName)
		b.tr.begin(b.tr.id(s.key + "/" + b.engineName()))
		b.tr.startCall()
		res = b.engine(f, l)
		b.tr.endCall()
		st.traced = append(st.traced, float64(b.tr.end(res.Requests))/1e9)
		st.rd = st.rd.add(b.tr.get(rdName).sub(rd0))
		st.wr = st.wr.add(b.tr.get(wrName).sub(wr0))
	} else {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res = b.engine(f, l)
		st.times = append(st.times, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		st.alloc = m1.TotalAlloc - m0.TotalAlloc
	}

	col := dev.Collector()
	b.attempted += l.requests
	b.fail(l.requests-res.Requests, "%s: engine issued %d of %d requests", s.key, res.Requests, l.requests)
	b.fail(l.requests-(col.HostReads+col.HostWrites), "%s: collector saw %d of %d requests", s.key, col.HostReads+col.HostWrites, l.requests)
	if b.spec.open && float64(res.Makespan()) > 1.05*float64(l.arrivalSpan) {
		b.fail(1, "%s: backlog grew: makespan %.3fs over an arrival span of %.3fs", s.key,
			float64(res.Makespan())/float64(nand.Second), float64(l.arrivalSpan)/float64(nand.Second))
	}
	n, why := checkDevice(dev)
	b.fail(n, "%s: %s", s.key, why)

	d := phaseDigest(dev, res)
	if st.digest != "" && st.digest != d {
		b.fail(1, "%s: repetitions disagree: sim digest %s then %s", s.key, st.digest, d)
	}
	st.digest = d
	st.pages = col.HostReadPages + col.HostWritePages
	st.requests = res.Requests
	st.dev, st.res = dev, res
	return nil
}

// rounds runs the interleaved repetitions. A traced run alternates an
// untraced and a traced phase of each scheme, which is what
// host.trace_overhead_ratio compares.
func (b *bench) rounds() error {
	var timed float64
	for r := 0; r < minRounds || timed < b.seconds; r++ {
		for _, s := range schemes {
			if err := b.phase(s, false); err != nil {
				return err
			}
			st := b.state[s.key]
			timed += st.times[len(st.times)-1]
			if b.tr != nil {
				if err := b.phase(s, true); err != nil {
					return err
				}
				timed += st.traced[len(st.traced)-1]
			}
		}
	}
	return nil
}

// finish builds each scheme's report from its last repetition, then cuts
// power to that device and checks that the mount scan rebuilds the same
// logical-to-physical map and an allocator view consistent with flash.
func (b *bench) finish() (recoverMS, mountMS float64) {
	for _, s := range schemes {
		st := b.state[s.key]
		end := b.span("stats.BuildReport")
		st.rep = stats.BuildReport(st.dev.Name(), st.dev.Collector(), st.dev.Flash().Counters(),
			st.res.Makespan(), b.cfg.Geometry.PageSize, b.cfg.Energy)
		end(0)

		before := st.dev.ShadowL2P()
		exempt := bufferedLPNs(st.dev)
		t0 := time.Now()
		end = b.span("persist.RecoverFromCrash")
		mount, err := learnedftl.RecoverFromCrash(st.dev)
		end(0)
		recoverMS += float64(time.Since(t0)) / 1e6
		if err != nil {
			b.fail(1, "%s: %v", s.key, err)
			continue
		}
		mountMS += float64(mount.Makespan()) / float64(nand.Millisecond)
		var lost int64
		for lpn, ppn := range st.dev.ShadowL2P() {
			if _, ok := exempt[int64(lpn)]; !ok && ppn != before[lpn] {
				lost++
			}
		}
		b.attempted += int64(len(before))
		b.fail(lost, "%s: recovery changed %d of %d mappings", s.key, lost, len(before))
		if inv := st.dev.AllocInvariants(); len(inv) > 0 {
			b.fail(int64(len(inv)), "%s: allocator after recovery: %s", s.key, inv[0])
		}
	}
	return recoverMS, mountMS
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSet collects a run's metrics: each value with the number of
// samples behind it (rounds for a host time, requests for a simulated
// statistic, repetitions for a kernel).
type metricSet struct {
	value   map[string]float64
	samples map[string]int64
}

func newMetricSet() metricSet {
	return metricSet{map[string]float64{}, map[string]int64{}}
}

func (m metricSet) put(name string, value float64, samples int64) {
	m.value[name], m.samples[name] = value, samples
}

// simMetrics fills one scheme's simulated statistics under "<prefix><name>".
func simMetrics(out metricSet, prefix string, st *schemeState) {
	rep, col := st.rep, st.dev.Collector()
	pages, n := float64(st.pages), st.requests
	out.put(prefix+"sim_kiops", rep.IOPS/1e3, n)
	out.put(prefix+"sim_p99_us", float64(rep.P99)/float64(nand.Microsecond), n)
	out.put(prefix+"sim_double_read_share", rep.DoubleFrac+rep.TripleFrac, col.HostReadPages)
	out.put(prefix+"sim_cmt_hit_ratio", rep.CMTHitRatio, col.CMTLookups)
	out.put(prefix+"sim_model_hit_ratio", rep.ModelHitRatio, col.CMTLookups)
	out.put(prefix+"sim_write_amp", rep.WriteAmp, col.HostWritePages)
	out.put(prefix+"sim_gc_count", float64(rep.GCCount), 1)
	out.put(prefix+"sim_gc_moved_per_gc", ratio(float64(col.GCPagesMoved), float64(col.GCCount)), col.GCCount)
	out.put(prefix+"sim_gc_busy_share", ratio(float64(col.GCBusyTime), float64(rep.Makespan)), col.GCCount)
	out.put(prefix+"sim_flash_reads_per_page", ratio(float64(rep.Flash.TotalReads()), pages), st.pages)
	out.put(prefix+"sim_flash_programs_per_page", ratio(float64(rep.Flash.TotalPrograms()), pages), st.pages)
}

// endToEndMetrics computes the untraced run's metrics.
func (b *bench) endToEndMetrics(setupS, heapMiB float64) metricSet {
	out := newMetricSet()
	out.put("setup_s", setupS, setupPasses)
	out.put("live_heap_mib", heapMiB, setupPasses)
	rounds := int64(len(b.state[schemes[0].key].times))
	for _, s := range schemes {
		out.put("host_kpages_per_s."+s.key, b.throughput(s.key), rounds)
	}
	out.put("host_kpages_per_s.all", b.throughput("all"), rounds)
	l := b.state["learnedftl"]
	out.put("sim_kiops.learnedftl", l.rep.IOPS/1e3, l.requests)
	out.put("sim_p99_us.learnedftl", float64(l.rep.P99)/float64(nand.Microsecond), l.requests)
	out.put("sim_flash_ops_per_page.learnedftl", ratio(float64(l.rep.Flash.TotalReads()+l.rep.Flash.TotalPrograms()), float64(l.pages)), l.pages)
	return out
}

// relSpeeds returns, per round, a scheme's pages per host second as a
// multiple of the five schemes' aggregate pages per host second in that
// round. A stretch in which the machine runs slow covers the whole round,
// so it cancels here where it does not in the throughput itself. The five
// figures are shares of one total: one scheme getting faster lowers the
// other four, so they help read the throughputs and are no metric to judge
// a change by.
func (b *bench) relSpeeds(s scheme) []float64 {
	st := b.state[s.key]
	out := make([]float64, len(st.times))
	for r := range out {
		var pages, secs float64
		for _, o := range schemes {
			pages += float64(b.state[o.key].pages)
			secs += b.state[o.key].times[r]
		}
		out[r] = ratio(float64(st.pages)/st.times[r], pages/secs)
	}
	return out
}

// throughput returns a scheme's 10^3 pages per host second over the median
// of its untraced rounds, and the five schemes' aggregate for key "all".
func (b *bench) throughput(key string) float64 {
	var pages, secs float64
	for _, s := range schemes {
		if key == s.key || key == "all" {
			pages += float64(b.state[s.key].pages)
			secs += median(b.state[s.key].times)
		}
	}
	return ratio(pages/1e3, secs)
}

// perLayerMetrics adds the traced run's metrics that come from the span
// totals and the reports to out, which already holds the kernels' and
// probes'.
func (b *bench) perLayerMetrics(out metricSet, recoverMS, mountMS float64) {
	tr := b.tr
	var tracedS, untracedS float64
	var engine spanAgg
	var rounds int64
	for _, s := range schemes {
		st := b.state[s.key]
		p := s.key + "."
		rounds = int64(len(st.traced))
		// A workload without reads (or writes) in its timed phase still has
		// them in set-up — settle reads, warm-up writes — and reports those.
		rd, wr := st.rd, st.wr
		if rd.units == 0 {
			rd = tr.get(s.key + "/ftl.ReadPages")
		}
		if wr.units == 0 {
			wr = tr.get(s.key + "/ftl.WritePages")
		}
		rel := b.relSpeeds(s)
		out.put(p+"host_rel_speed", median(rel), int64(len(rel)))
		out.put(p+"read_ns_per_page", ratio(float64(rd.total), float64(rd.units)), rd.count)
		out.put(p+"write_ns_per_page", ratio(float64(wr.total), float64(wr.units)), wr.count)
		out.put(p+"alloc_bytes_per_kpage", ratio(float64(st.alloc), float64(st.pages)/1e3), 1)
		fl := st.rep.Flash
		out.put(p+"host_ns_per_flash_op", ratio(median(st.times)*1e9, float64(fl.TotalReads()+fl.TotalPrograms()+fl.Erases)), int64(len(st.times)))
		simMetrics(out, p, st)
		tracedS += median(st.traced)
		untracedS += median(st.times)
		engine = engine.add(tr.get(s.key + "/" + b.engineName()))
	}
	next := tr.get("workload.Next")
	out.put("sim.self_ns_per_req", ratio(float64(engine.self), float64(engine.units)), engine.units)
	out.put("workload.next_ns_per_req", ratio(float64(next.total), float64(next.count)), next.count)
	rep := tr.get("stats.BuildReport")
	out.put("stats.report_ms", ratio(float64(rep.total)/1e6, float64(rep.count)), rep.count)
	snap, rest := tr.get("persist.Snapshot"), tr.get("persist.Restore")
	out.put("persist.snapshot_mb_per_s", ratio(float64(snap.units)/1e6, float64(snap.total)/1e9), snap.count)
	out.put("persist.restore_mb_per_s", ratio(float64(rest.units)/1e6, float64(rest.total)/1e9), rest.count)
	out.put("persist.snapshot_bytes_per_page", ratio(float64(snap.units), float64(snap.count)*float64(b.cfg.Geometry.TotalPages())), snap.count)
	out.put("persist.recover_ms", recoverMS, int64(len(schemes)))
	out.put("persist.sim_mount_ms", mountMS, int64(len(schemes)))
	out.put("host.trace_overhead_ratio", ratio(tracedS, untracedS), rounds)
}
