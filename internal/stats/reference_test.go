package stats

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"learnedftl/internal/nand"
)

// refCollector is the open-loop recording Collector had before a sample
// was stored once, in plain slices: every request joins the device-wide
// read or write population and, a second time, its tenant's bucket;
// DefineStreams drops the buckets and leaves the populations; Reset drops
// everything. It is the reference the distribution-backed Collector is
// compared with, field for field of the report.
type refCollector struct {
	readLat, writeLat, readWait, writeWait []int64
	pages                                  [2]int64
	streams                                []*refStream
	streamIdx                              []int
}

type refStream struct {
	name      string
	lat, wait []int64
}

func (c *refCollector) defineStreams(names []string) {
	c.streams = nil
	c.streamIdx = make([]int, len(names))
	byName := map[string]int{}
	for i, n := range names {
		b, ok := byName[n]
		if !ok {
			b = len(c.streams)
			byName[n] = b
			c.streams = append(c.streams, &refStream{name: n})
		}
		c.streamIdx[i] = b
	}
}

func (c *refCollector) recordQueued(stream int, write bool, wait, service nand.Time, pages int) {
	total := int64(wait + service)
	if write {
		c.writeLat, c.writeWait = append(c.writeLat, total), append(c.writeWait, int64(wait))
		c.pages[1] += int64(pages)
	} else {
		c.readLat, c.readWait = append(c.readLat, total), append(c.readWait, int64(wait))
		c.pages[0] += int64(pages)
	}
	if stream >= 0 && stream < len(c.streamIdx) {
		s := c.streams[c.streamIdx[stream]]
		s.lat, s.wait = append(s.lat, total), append(s.wait, int64(wait))
	}
}

func refSum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}

func refMean(vs ...[]int64) nand.Time {
	var n, s int64
	for _, v := range vs {
		n, s = n+int64(len(v)), s+refSum(v)
	}
	if n == 0 {
		return 0
	}
	return nand.Time(s / n)
}

func refShare(lat, wait int64) float64 {
	if lat == 0 {
		return 0
	}
	return float64(wait) / float64(lat)
}

// refSorted returns the populations vs as one ascending slice, as the
// collector sorted them before it kept a bounded distribution.
func refSorted(vs ...[]int64) []int64 {
	s := slices.Concat(vs...)
	slices.Sort(s)
	return s
}

// refIndex is the index of the p-th percentile in a sorted population of n.
func refIndex(n int, p float64) int { return min(max(int(p/100*float64(n))-1, 0), n-1) }

// refPercentile returns the p-th percentile of the ascending slice s.
func refPercentile(s []int64, p float64) nand.Time {
	if len(s) == 0 {
		return 0
	}
	return nand.Time(s[refIndex(len(s), p)])
}

// refReads reports whether got is what the collector may read for the p-th
// percentile of the ascending slice s: the sorted value while its rank from
// the top is at most topK, else that value or its histogram bucket's lower
// bound.
func refReads(got nand.Time, p float64, s []int64) (want nand.Time, ok bool) {
	want = refPercentile(s, p)
	if got == want || len(s)-refIndex(len(s), p) <= topK {
		return want, got == want
	}
	return want, int64(got) == bucketLow(bucketOf(int64(want)))
}

// report builds what BuildReport builds from the collector's samples.
func (c *refCollector) report(makespan nand.Time, pageSize int) Report {
	sumL := refSum(c.readLat) + refSum(c.writeLat)
	all := refSorted(c.readLat, c.writeLat)
	r := Report{
		FTL:         "ref",
		Makespan:    makespan,
		MeanReadLat: refMean(c.readLat),
		P99:         refPercentile(all, 99),
		P999:        refPercentile(all, 99.9),
		Requests:    int64(len(c.readLat) + len(c.writeLat)),
		MeanLat:     refMean(c.readLat, c.writeLat),
		MeanWait:    refMean(c.readWait, c.writeWait),
		WaitShare:   refShare(sumL, refSum(c.readWait)+refSum(c.writeWait)),
	}
	secs := float64(makespan) / float64(nand.Second)
	r.ReadMBps = float64(c.pages[0]) * float64(pageSize) / (1 << 20) / secs
	r.WriteMBps = float64(c.pages[1]) * float64(pageSize) / (1 << 20) / secs
	r.IOPS = float64(r.Requests) / secs
	for _, s := range c.streams {
		lat := refSorted(s.lat)
		r.Streams = append(r.Streams, StreamReport{
			Name:      s.name,
			Requests:  int64(len(s.lat)),
			MeanLat:   refMean(s.lat),
			P99:       refPercentile(lat, 99),
			P999:      refPercentile(lat, 99.9),
			MeanWait:  refMean(s.wait),
			WaitShare: refShare(refSum(s.lat), refSum(s.wait)),
		})
	}
	return r
}

// compare checks every Report and StreamReport field and the collector's
// own percentile and mean accessors against the reference.
func compareWithRef(t *testing.T, c *Collector, ref *refCollector, at string) {
	t.Helper()
	got := BuildReport("ref", c, nand.OpCounters{}, nand.Second, 4096, nand.Energy{})
	if want := ref.report(nand.Second, 4096); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report\n got %+v\nwant %+v", at, got, want)
	}
	if got, want := c.MeanWriteLatency(), refMean(ref.writeLat); got != want {
		t.Fatalf("%s: mean write latency %d, want %d", at, got, want)
	}
	reads, writes, all := refSorted(ref.readLat), refSorted(ref.writeLat), refSorted(ref.readLat, ref.writeLat)
	for _, p := range []float64{0.5, 25, 50, 90, 99, 99.9, 100} {
		for name, read := range map[string]struct {
			got nand.Time
			of  []int64
		}{
			"read":  {c.ReadPercentile(p), reads},
			"write": {c.WritePercentile(p), writes},
			"all":   {c.Percentile(p), all},
		} {
			if want, ok := refReads(read.got, p, read.of); !ok {
				t.Fatalf("%s: %s P%v = %d, want %d", at, name, p, read.got, want)
			}
		}
	}
	for i, s := range c.Streams() {
		lat := refSorted(ref.streams[i].lat)
		for _, p := range []float64{1, 50, 99.9} {
			if want, ok := refReads(s.Percentile(p), p, lat); !ok {
				t.Fatalf("%s: stream %s P%v = %d, want %d", at, s.Name, p, s.Percentile(p), want)
			}
		}
	}
}

// TestCollectorMatchesDoubleRecordingReference drives seeded random
// multi-tenant open-loop runs through both collectors: tenants spread over
// same-named streams, tenants that read and write, a stream index outside
// the defined range, a second run without Reset (the populations keep
// accumulating, the buckets restart), and Reset followed by reuse. Seed 1's
// first run is long enough that one bucket's reads pass topCap, so its
// distribution cuts its buffer while recording, and the populations'
// medians read the histogram.
func TestCollectorMatchesDoubleRecordingReference(t *testing.T) {
	tenants := []string{"web", "sys", "web", "log", "sys", "web"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := NewCollector(), &refCollector{}
		run := func(names []string, n int) {
			c.DefineStreams(names)
			ref.defineStreams(names)
			for i := 0; i < n; i++ {
				stream := rng.Intn(len(names)+2) - 1 // -1 and len(names) are out of range
				write := stream%2 == 1 || rng.Intn(8) == 0
				wait := nand.Time(rng.Int63n(1 << uint(rng.Intn(30))))
				service := nand.Time(40_000 + rng.Int63n(1<<uint(10+rng.Intn(18))))
				if rng.Intn(3) == 0 {
					wait = 0
				}
				pages := 1 + rng.Intn(8)
				c.RecordQueued(stream, write, wait, service, pages)
				ref.recordQueued(stream, write, wait, service, pages)
			}
		}
		first := 25_000 + rng.Intn(1000)
		if seed == 1 {
			first = 10 * topK
		}
		run(tenants, first)
		if past := slices.ContainsFunc(c.buckets, func(b *StreamLat) bool { return b.dir[0].lat.n > topCap }); past != (seed == 1) {
			t.Fatalf("seed %d: a bucket's reads passed topCap: %v", seed, past)
		}
		compareWithRef(t, c, ref, "first run")
		run(tenants[:4], 2000+rng.Intn(1000))
		compareWithRef(t, c, ref, "second run without Reset")
		run([]string{"log", "new"}, 500)
		compareWithRef(t, c, ref, "third run, other tenants")

		c.Reset()
		*ref = refCollector{}
		if c.Streams() != nil {
			t.Fatal("Reset left stream buckets defined")
		}
		compareWithRef(t, c, ref, "after Reset")
		run(tenants, 1500)
		compareWithRef(t, c, ref, "reuse after Reset")
	}
}

// TestResetRetainsTenantArenas: Reset empties the tenant buckets and keeps
// their memory — each distribution's buffer and histogram — and the next
// run's DefineStreams hands them out again.
func TestResetRetainsTenantArenas(t *testing.T) {
	c := NewCollector()
	c.DefineStreams([]string{"a", "b"})
	for i := 0; i < 4*topCap+4; i++ { // every population cuts
		c.RecordQueued(i%2, i%4 < 2, nand.Time(i), 10, 1)
	}
	held := func() (n int) {
		for _, b := range c.buckets {
			for _, p := range b.all() {
				n += cap(p.lat.top) + len(p.lat.hist)
			}
		}
		return n
	}
	before := held()
	c.Reset()
	if got := held(); got != before || before == 0 {
		t.Fatalf("Reset kept %d of %d tenant slots", got, before)
	}
	c.DefineStreams([]string{"x", "y"})
	if s := c.Streams(); len(s) != 2 || s[0].Name != "x" || s[0].Requests() != 0 || s[0] != c.buckets[0] {
		t.Fatalf("buckets not reused empty under the new names: %+v", s)
	}
}

// TestRecordQueuedZeroAlloc: with the buckets warm — one run recorded, then
// Reset and the next run's DefineStreams — recording open-loop requests
// allocates nothing, for defined and undefined streams alike. The whole
// block is one AllocsPerRun run, because AllocsPerRun rounds down: a slice
// that regrows a few dozen times over as many thousand records would read
// as 0 per record.
func TestRecordQueuedZeroAlloc(t *testing.T) {
	c := NewCollector()
	names := []string{"reader", "reader", "writer"}
	const n = 2 * topCap
	i := 0
	block := func() {
		for k := 0; k < n; k++ {
			c.RecordQueued(i%4, i%4 == 2, nand.Time(i), 40_000, 1) // stream 3 is undefined
			i++
		}
	}
	c.DefineStreams(names)
	block()
	block()
	c.Reset()
	c.DefineStreams(names)
	if allocs := testing.AllocsPerRun(1, block); allocs != 0 { // a warm-up block, then the measured one
		t.Fatalf("%d warm RecordQueued calls allocated %.0f times", n, allocs)
	}
}
