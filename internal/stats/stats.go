// Package stats collects the metrics every experiment in the paper reports:
// request latencies with exact tail percentiles (P99/P99.9), read-class
// counters (single/double/triple flash reads per host read), mapping-cache
// and learned-model hit ratios, GC activity, write amplification and the
// NANDFlashSim-style energy totals.
package stats

import (
	"fmt"
	"slices"

	"learnedftl/internal/nand"
	"learnedftl/internal/obs"
)

// ReadClass classifies a host read request by how many serialized flash
// reads the address translation forced (the paper's single/double/triple
// reads, Fig. 6b).
type ReadClass uint8

const (
	// ReadSingle: translation resolved in DRAM (CMT hit or accurate model
	// prediction) — one flash read for the data.
	ReadSingle ReadClass = iota
	// ReadDouble: one extra flash read (translation page or mispredicted
	// page + OOB) before the data read.
	ReadDouble
	// ReadTriple: two extra flash reads (LeaFTL: translation read for the
	// model, mispredicted data read, then correct data read).
	ReadTriple
	readClasses
)

// String implements fmt.Stringer.
func (c ReadClass) String() string {
	switch c {
	case ReadSingle:
		return "single"
	case ReadDouble:
		return "double"
	case ReadTriple:
		return "triple"
	default:
		return "unknown"
	}
}

// Collector accumulates per-run metrics. One Collector belongs to one FTL
// instance; the simulation engine records request latencies into it and the
// FTL records hit/class events.
type Collector struct {
	// host is the bucket of the latency samples credited to no tenant:
	// every closed-loop request (device service time), and of an open-loop
	// run (total latency plus its queue wait) the requests of no defined
	// stream and, once DefineStreams starts another run, the earlier run's.
	// A sample is stored once: the device-wide populations are host and
	// every tenant bucket read together.
	host StreamLat

	// Per-tenant buckets of an open-loop run, registered by DefineStreams:
	// streams the run's buckets in first-appearance order, streamOf the
	// bucket of each engine stream. buckets is every bucket ever made;
	// like host it survives Reset, so a later run records into warm arenas.
	streams  []*StreamLat
	streamOf []*StreamLat
	buckets  []*StreamLat

	// Host-level op/byte counts.
	HostReads      int64
	HostWrites     int64
	HostReadPages  int64
	HostWritePages int64

	// TRIM/Discard accounting: host trim requests, pages covered, and how
	// many of those actually held flash-resident data to invalidate.
	HostTrims       int64
	HostTrimPages   int64
	HostTrimmedLive int64

	// Translation-path events, counted per host page read.
	CMTHits    int64 // resolved by the cached mapping table
	ModelHits  int64 // resolved by an accurate learned-model prediction
	CMTLookups int64 // total page-read translations attempted

	// Read classes per host page read.
	ReadClasses [readClasses]int64

	// GC activity.
	GCCount      int64
	BGGCCount    int64 // collections launched from idle-gap background GC
	GCPagesMoved int64
	GCBusyTime   nand.Time // total virtual time spent inside GC
	SortTrainOps int64     // GTD entries sorted+trained during GC
	SortTrainNS  int64     // virtual ns charged for sorting+training

	// Background scrub activity (fault model): at-risk block rewrites.
	ScrubCount      int64
	ScrubPagesMoved int64

	// DeviceFailed latches when the FTL could not allocate space for a host
	// or translation write — the device is overcommitted or bad-block
	// growth consumed the over-provisioning. Writes after the latch are
	// dropped; FailReason carries the first failure's diagnosis.
	DeviceFailed bool
	FailReason   string

	// tr, when non-nil, is the attached observability tracer
	// (internal/obs). It is run state like the series arenas — Reset
	// preserves it — but it accumulates across phases; experiments attach a
	// fresh tracer after warm-up to scope it to the measured phase.
	tr *obs.Tracer

	// ModelTrainings counts learned-model (re)trainings.
	ModelTrainings int64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// SetTracer attaches (or with nil detaches) the observability tracer. The
// engines and FTL layers consult Tracer() on their hot paths; with no
// tracer attached every consultation is a nil check.
func (c *Collector) SetTracer(t *obs.Tracer) { c.tr = t }

// Tracer returns the attached observability tracer (nil when disabled).
func (c *Collector) Tracer() *obs.Tracer { return c.tr }

// RecordRead records a completed host read request of the given latency.
func (c *Collector) RecordRead(lat nand.Time, pages int) {
	c.host.dir[0].lat.append(int64(lat))
	c.HostReads++
	c.HostReadPages += int64(pages)
}

// RecordWrite records a completed host write request of the given latency.
func (c *Collector) RecordWrite(lat nand.Time, pages int) {
	c.host.dir[1].lat.append(int64(lat))
	c.HostWrites++
	c.HostWritePages += int64(pages)
}

// latPop is one population of request latencies, in a chunked arena
// (series) that a reset keeps so recording allocates nothing in steady
// state, plus the count and sum of the queue waits of its open-loop
// samples (closed-loop samples record none).
type latPop struct {
	lat            series
	waits, waitSum int64
}

// population is a set of latPops read as one. Everything computed from it —
// integer sums and percentiles of the sorted samples — is independent of
// the order the samples are visited in.
type population []*latPop

// total returns the count and the sum of the latencies, or of the recorded
// queue waits.
func (ps population) total(waits bool) (n, sum int64) {
	for _, p := range ps {
		if waits {
			n, sum = n+p.waits, sum+p.waitSum
		} else {
			n, sum = n+int64(p.lat.len()), sum+p.lat.sum()
		}
	}
	return n, sum
}

// mean returns the average latency, or the average recorded queue wait.
func (ps population) mean(waits bool) nand.Time {
	n, sum := ps.total(waits)
	if n == 0 {
		return 0
	}
	return nand.Time(sum / n)
}

// waitShare returns the fraction of the summed latency spent queued.
func (ps population) waitShare() float64 {
	_, lat := ps.total(false)
	if lat == 0 {
		return 0
	}
	_, wait := ps.total(true)
	return float64(wait) / float64(lat)
}

// sorted returns a fresh ascending copy of the latencies; percentileOf
// reads any number of percentiles off one copy.
func (ps population) sorted() []int64 {
	n := 0
	for _, p := range ps {
		n += p.lat.len()
	}
	v := make([]int64, 0, n)
	for _, p := range ps {
		v = p.lat.appendTo(v)
	}
	slices.Sort(v)
	return v
}

// StreamLat accumulates one tenant's request latencies and queue waits,
// reads in dir[0] and writes in dir[1], for the per-stream percentile
// tracking of multi-tenant open-loop runs.
type StreamLat struct {
	Name string
	dir  [2]latPop
}

func (s *StreamLat) all() population { return population{&s.dir[0], &s.dir[1]} }

// reset empties the bucket and keeps its arenas.
func (s *StreamLat) reset() {
	for _, p := range s.all() {
		p.lat.reset()
		p.waits, p.waitSum = 0, 0
	}
}

// Requests returns the number of completed requests recorded.
func (s *StreamLat) Requests() int64 { return int64(s.dir[0].lat.len() + s.dir[1].lat.len()) }

// Mean returns the stream's mean total latency.
func (s *StreamLat) Mean() nand.Time { return s.all().mean(false) }

// Percentile returns the p-th percentile of the stream's total latencies.
func (s *StreamLat) Percentile(p float64) nand.Time {
	return percentileOf(s.all().sorted(), p)
}

// MeanWait returns the stream's mean queue wait.
func (s *StreamLat) MeanWait() nand.Time { return s.all().mean(true) }

// WaitShare returns the fraction of the stream's total latency spent
// waiting in queue rather than being serviced.
func (s *StreamLat) WaitShare() float64 { return s.all().waitShare() }

// DefineStreams registers the named streams of an open-loop run, in engine
// stream order. Streams sharing a name share one bucket — that is how a
// tenant spread across several parallel streams is accounted as one. The
// buckets start empty: samples an earlier run left in them move to host,
// so the device-wide populations keep accumulating until Reset.
func (c *Collector) DefineStreams(names []string) {
	for _, b := range c.streams {
		for d := range b.dir {
			h := &c.host.dir[d]
			h.lat.extend(&b.dir[d].lat)
			h.waits += b.dir[d].waits
			h.waitSum += b.dir[d].waitSum
		}
		b.reset()
	}
	c.streams = c.buckets[:0]
	c.streamOf = make([]*StreamLat, len(names))
	byName := make(map[string]*StreamLat, len(names))
	for i, n := range names {
		b := byName[n]
		if b == nil {
			if len(c.streams) == len(c.buckets) {
				c.buckets = append(c.buckets, &StreamLat{})
			}
			b = c.buckets[len(c.streams)]
			b.Name = n
			c.streams = c.buckets[:len(c.streams)+1]
			byName[n] = b
		}
		c.streamOf[i] = b
	}
}

// Streams returns the per-tenant latency buckets in first-appearance
// order, or nil for a closed-loop run.
func (c *Collector) Streams() []*StreamLat { return c.streams }

// RecordQueued records one completed open-loop request, once: the total
// latency (wait + service) and the wait's count and sum go to the stream's
// bucket — to host for a stream DefineStreams did not name — and join the
// device-wide populations from there.
func (c *Collector) RecordQueued(stream int, write bool, wait, service nand.Time, pages int) {
	b := &c.host
	if uint(stream) < uint(len(c.streamOf)) {
		b = c.streamOf[stream]
	}
	p := &b.dir[0]
	if write {
		p = &b.dir[1]
		c.HostWrites++
		c.HostWritePages += int64(pages)
	} else {
		c.HostReads++
		c.HostReadPages += int64(pages)
	}
	p.lat.append(int64(wait + service))
	p.waits++
	p.waitSum += int64(wait)
}

// RecordClass records the read class of one host page read.
func (c *Collector) RecordClass(cl ReadClass) { c.ReadClasses[cl]++ }

// RecordGC records one GC invocation that moved the given number of valid
// pages and kept the device busy for busy ns.
func (c *Collector) RecordGC(pagesMoved int, busy nand.Time) {
	c.GCCount++
	c.GCPagesMoved += int64(pagesMoved)
	c.GCBusyTime += busy
}

// RecordBGGC marks the most recent collection as background-triggered
// (idle-gap collection rather than a watermark hit on the write path).
func (c *Collector) RecordBGGC() { c.BGGCCount++ }

// RecordScrub records one background scrub collection that refreshed
// pagesMoved pages. Scrubs are accounted apart from GC so refresh traffic
// is distinguishable from reclamation.
func (c *Collector) RecordScrub(pagesMoved int) {
	c.ScrubCount++
	c.ScrubPagesMoved += int64(pagesMoved)
}

// RecordDeviceFailure latches the device-failed state; the first reported
// reason wins (it is the root cause — later failures follow from it).
func (c *Collector) RecordDeviceFailure(reason string) {
	if !c.DeviceFailed {
		c.DeviceFailed = true
		c.FailReason = reason
	}
}

// RecordTrim records one host TRIM request covering pages LPNs, live of
// which held flash-resident data. Trims are metadata operations: they join
// no latency population.
func (c *Collector) RecordTrim(pages, live int) {
	c.HostTrims++
	c.HostTrimPages += int64(pages)
	c.HostTrimmedLive += int64(live)
}

// Reset clears all accumulated metrics (between warm-up and measurement).
// The latency arenas — host's and every tenant bucket's — are kept and
// emptied rather than dropped, so the next phase records into
// already-allocated chunks.
func (c *Collector) Reset() {
	host, buckets, tr := c.host, c.buckets, c.tr
	*c = Collector{}
	c.host, c.buckets, c.tr = host, buckets, tr
	for _, b := range append([]*StreamLat{&c.host}, buckets...) {
		b.reset()
	}
}

// pop returns the device-wide population of reads, writes or both: host
// and every tenant bucket of the current run.
func (c *Collector) pop(reads, writes bool) population {
	var ps population
	for _, b := range append([]*StreamLat{&c.host}, c.streams...) {
		if reads {
			ps = append(ps, &b.dir[0])
		}
		if writes {
			ps = append(ps, &b.dir[1])
		}
	}
	return ps
}

// Percentile returns the p-th percentile (0 < p <= 100) of the merged
// read+write latency population, or 0 if empty.
func (c *Collector) Percentile(p float64) nand.Time {
	return percentileOf(c.pop(true, true).sorted(), p)
}

// ReadPercentile returns the p-th percentile of read latencies.
func (c *Collector) ReadPercentile(p float64) nand.Time {
	return percentileOf(c.pop(true, false).sorted(), p)
}

// WritePercentile returns the p-th percentile of write latencies.
func (c *Collector) WritePercentile(p float64) nand.Time {
	return percentileOf(c.pop(false, true).sorted(), p)
}

// percentileOf returns the p-th percentile of an ascending slice.
func percentileOf(s []int64, p float64) nand.Time {
	if len(s) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(s))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return nand.Time(s[idx])
}

// MeanLatency returns the average over the merged read+write latency
// population.
func (c *Collector) MeanLatency() nand.Time { return c.pop(true, true).mean(false) }

// MeanQueueWait returns the average queue wait over all open-loop
// requests (0 for closed-loop runs).
func (c *Collector) MeanQueueWait() nand.Time { return c.pop(true, true).mean(true) }

// QueueWaitShare returns the fraction of total host latency spent queued
// rather than serviced, over the merged read+write population.
func (c *Collector) QueueWaitShare() float64 { return c.pop(true, true).waitShare() }

// MeanReadLatency returns the average read latency.
func (c *Collector) MeanReadLatency() nand.Time { return c.pop(true, false).mean(false) }

// MeanWriteLatency returns the average write latency.
func (c *Collector) MeanWriteLatency() nand.Time { return c.pop(false, true).mean(false) }

// CMTHitRatio returns the fraction of page-read translations served by the
// mapping cache.
func (c *Collector) CMTHitRatio() float64 {
	if c.CMTLookups == 0 {
		return 0
	}
	return float64(c.CMTHits) / float64(c.CMTLookups)
}

// ModelHitRatio returns the fraction of page-read translations served by an
// accurate learned-model prediction.
func (c *Collector) ModelHitRatio() float64 {
	if c.CMTLookups == 0 {
		return 0
	}
	return float64(c.ModelHits) / float64(c.CMTLookups)
}

// ReadClassFraction returns the fraction of host page reads in class cl.
func (c *Collector) ReadClassFraction(cl ReadClass) float64 {
	var total int64
	for _, n := range c.ReadClasses {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(c.ReadClasses[cl]) / float64(total)
}

// Report is a frozen summary of one experiment run, combining the
// collector's host-side view with the flash counters.
type Report struct {
	FTL       string
	Makespan  nand.Time
	ReadMBps  float64
	WriteMBps float64

	MeanReadLat nand.Time
	P99         nand.Time
	P999        nand.Time

	// Host-level request accounting and, for open-loop runs, the
	// queue-wait decomposition and per-tenant breakdown (zero/empty for
	// closed-loop runs).
	Requests  int64
	IOPS      float64
	MeanLat   nand.Time
	MeanWait  nand.Time
	WaitShare float64
	Streams   []StreamReport

	CMTHitRatio   float64
	ModelHitRatio float64
	SingleFrac    float64
	DoubleFrac    float64
	TripleFrac    float64

	WriteAmp float64
	GCCount  int64
	// BGGCCount is the subset of GCCount launched from idle-gap background
	// collection (zero for closed-loop runs and foreground-only devices).
	BGGCCount int64
	HostTrims int64
	EnergyMJ  float64

	// Wear is the per-block erase distribution at report time and
	// LifetimeTBW the projected endurance-limited host terabytes writable
	// at the run's write amplification; both are filled by AddWear.
	Wear        nand.WearStats
	LifetimeTBW float64

	// ModelBytes is the resident size of the device model's metadata
	// arrays and ModelBytesPerPage its page-granular share — the memory
	// the simulator spends per simulated flash page, which bounds how
	// large a geometry a sweep can hold. Both are filled by AddFootprint,
	// so the BENCH trajectory captures footprint wins alongside wall
	// clock.
	ModelBytes        int64
	ModelBytesPerPage float64

	Flash nand.OpCounters

	// Reliability view (zero when the fault model is disabled). Rel carries
	// the raw event tallies; UBER is uncorrectable reads per host-visible
	// bit read; RefreshPages is the scrub-driven rewrite traffic. Failed
	// mirrors the collector's device-failed latch. All filled by
	// AddReliability except Failed/FailReason/ScrubCount/RefreshPages,
	// which BuildReport copies from the collector.
	Rel            nand.RelCounters
	UBER           float64
	GrownBadBlocks int
	ScrubCount     int64
	RefreshPages   int64
	Failed         bool
	FailReason     string

	// Obs is the per-request latency attribution breakdown, filled by
	// BuildReport only when an observability tracer was attached to the
	// collector — with observability off the Report is exactly what it
	// always was.
	Obs *obs.Breakdown `json:"obs,omitempty"`
}

// AddWear attaches the device's erase distribution and the projected
// P/E-limited lifetime: with endurance cycles per block, a device of
// physBytes raw capacity can absorb endurance × physBytes / WA bytes of
// host writes before the average block wears out.
func (r *Report) AddWear(w nand.WearStats, endurance int64, physBytes int64) {
	r.Wear = w
	if r.WriteAmp > 0 && endurance > 0 {
		r.LifetimeTBW = float64(endurance) * float64(physBytes) / r.WriteAmp / 1e12
	}
}

// AddFootprint attaches the device-model memory footprint.
func (r *Report) AddFootprint(fp nand.Footprint) {
	r.ModelBytes = fp.TotalBytes
	r.ModelBytesPerPage = fp.BytesPerPage
}

// AddReliability attaches the flash array's reliability tallies and derives
// UBER: host-visible uncorrectable reads over the bits of host data the
// measured window read. Relocation and translation reads are excluded from
// both sides — a decayed page that fails during GC is not an error on any
// host request.
func (r *Report) AddReliability(rel nand.RelCounters, badBlocks int, pageSize int) {
	r.Rel = rel
	r.GrownBadBlocks = badBlocks
	if bits := float64(r.Flash.Reads[nand.OpHostData]) * float64(pageSize) * 8; bits > 0 {
		r.UBER = float64(rel.HostUncorrectable) / bits
	}
}

// StreamReport is the frozen per-tenant summary of one open-loop run.
type StreamReport struct {
	Name      string
	Requests  int64
	MeanLat   nand.Time
	P99       nand.Time
	P999      nand.Time
	MeanWait  nand.Time
	WaitShare float64
}

// BuildReport summarizes a run. makespan is the virtual duration of the
// measured phase; pageSize converts pages to bytes for throughput.
func BuildReport(name string, c *Collector, flash nand.OpCounters,
	makespan nand.Time, pageSize int, energy nand.Energy) Report {

	lats := c.pop(true, true).sorted() // one sort serves both percentiles
	r := Report{
		FTL:           name,
		Makespan:      makespan,
		MeanReadLat:   c.MeanReadLatency(),
		P99:           percentileOf(lats, 99),
		P999:          percentileOf(lats, 99.9),
		Requests:      c.HostReads + c.HostWrites,
		MeanLat:       c.MeanLatency(),
		MeanWait:      c.MeanQueueWait(),
		WaitShare:     c.QueueWaitShare(),
		CMTHitRatio:   c.CMTHitRatio(),
		ModelHitRatio: c.ModelHitRatio(),
		SingleFrac:    c.ReadClassFraction(ReadSingle),
		DoubleFrac:    c.ReadClassFraction(ReadDouble),
		TripleFrac:    c.ReadClassFraction(ReadTriple),
		GCCount:       c.GCCount,
		BGGCCount:     c.BGGCCount,
		HostTrims:     c.HostTrims,
		ScrubCount:    c.ScrubCount,
		RefreshPages:  c.ScrubPagesMoved,
		Failed:        c.DeviceFailed,
		FailReason:    c.FailReason,
		Flash:         flash,
		EnergyMJ:      float64(flash.EnergyNJ(energy)) / 1e6,
	}
	if makespan > 0 {
		secs := float64(makespan) / float64(nand.Second)
		r.ReadMBps = float64(c.HostReadPages) * float64(pageSize) / (1 << 20) / secs
		r.WriteMBps = float64(c.HostWritePages) * float64(pageSize) / (1 << 20) / secs
		r.IOPS = float64(r.Requests) / secs
	}
	for _, s := range c.Streams() {
		lats := s.all().sorted()
		r.Streams = append(r.Streams, StreamReport{
			Name:      s.Name,
			Requests:  s.Requests(),
			MeanLat:   s.Mean(),
			P99:       percentileOf(lats, 99),
			P999:      percentileOf(lats, 99.9),
			MeanWait:  s.MeanWait(),
			WaitShare: s.WaitShare(),
		})
	}
	if c.HostWritePages > 0 {
		r.WriteAmp = float64(flash.TotalPrograms()) / float64(c.HostWritePages)
	}
	if tr := c.Tracer(); tr != nil {
		b := tr.Breakdown()
		r.Obs = &b
	}
	return r
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%-11s rd=%7.1fMB/s wr=%7.1fMB/s p99=%7.2fms cmt=%5.1f%% model=%5.1f%% s/d/t=%4.1f/%4.1f/%4.1f%% WA=%4.2f gc=%d",
		r.FTL, r.ReadMBps, r.WriteMBps,
		float64(r.P99)/float64(nand.Millisecond),
		r.CMTHitRatio*100, r.ModelHitRatio*100,
		r.SingleFrac*100, r.DoubleFrac*100, r.TripleFrac*100,
		r.WriteAmp, r.GCCount)
}
