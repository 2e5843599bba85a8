package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"learnedftl/internal/nand"
)

func TestPercentileExact(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.RecordRead(nand.Time(i), 1)
	}
	cases := []struct {
		p    float64
		want nand.Time
	}{
		{50, 50}, {99, 99}, {100, 100}, {1, 1},
	}
	for _, tc := range cases {
		if got := c.ReadPercentile(tc.p); got != tc.want {
			t.Errorf("P%v = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	c := NewCollector()
	if c.Percentile(99) != 0 || c.MeanReadLatency() != 0 {
		t.Fatal("empty collector should return zeros")
	}
}

func TestPercentileMergesReadsAndWrites(t *testing.T) {
	c := NewCollector()
	c.RecordRead(10, 1)
	c.RecordWrite(1000, 1)
	if got := c.Percentile(100); got != 1000 {
		t.Fatalf("merged P100 = %d, want 1000", got)
	}
	if got := c.ReadPercentile(100); got != 10 {
		t.Fatalf("read P100 = %d, want 10", got)
	}
	if got := c.WritePercentile(100); got != 1000 {
		t.Fatalf("write P100 = %d, want 1000", got)
	}
}

// Property: the percentile function returns an element of the population and
// at least p% of elements are <= it.
func TestPercentileProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		c := NewCollector()
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1_000_000)
			c.RecordRead(nand.Time(vals[i]), 1)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{50, 90, 99, 99.9} {
			got := int64(c.ReadPercentile(p))
			// membership
			idx := sort.Search(len(vals), func(i int) bool { return vals[i] >= got })
			if idx == len(vals) || vals[idx] != got {
				return false
			}
			// rank property
			atOrBelow := 0
			for _, v := range vals {
				if v <= got {
					atOrBelow++
				}
			}
			minRank := int(p / 100 * float64(n))
			if minRank < 1 {
				minRank = 1
			}
			if atOrBelow < minRank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRatios(t *testing.T) {
	c := NewCollector()
	if c.CMTHitRatio() != 0 || c.ModelHitRatio() != 0 {
		t.Fatal("ratios on empty collector should be 0")
	}
	c.CMTLookups = 10
	c.CMTHits = 3
	c.ModelHits = 5
	if got := c.CMTHitRatio(); got != 0.3 {
		t.Errorf("CMTHitRatio = %v", got)
	}
	if got := c.ModelHitRatio(); got != 0.5 {
		t.Errorf("ModelHitRatio = %v", got)
	}
}

func TestReadClassFractions(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		c.RecordClass(ReadSingle)
	}
	for i := 0; i < 4; i++ {
		c.RecordClass(ReadDouble)
	}
	c.RecordClass(ReadTriple)
	if got := c.ReadClassFraction(ReadSingle); got != 0.5 {
		t.Errorf("single = %v", got)
	}
	if got := c.ReadClassFraction(ReadDouble); got != 0.4 {
		t.Errorf("double = %v", got)
	}
	if got := c.ReadClassFraction(ReadTriple); got != 0.1 {
		t.Errorf("triple = %v", got)
	}
}

func TestReadClassString(t *testing.T) {
	if ReadSingle.String() != "single" || ReadDouble.String() != "double" || ReadTriple.String() != "triple" {
		t.Fatal("ReadClass.String mismatch")
	}
}

func TestBuildReportThroughputAndWA(t *testing.T) {
	c := NewCollector()
	// 256 pages read over 1 virtual second = 1 MiB/s at 4KB pages.
	for i := 0; i < 256; i++ {
		c.RecordRead(40*nand.Microsecond, 1)
	}
	// 100 host page writes.
	for i := 0; i < 100; i++ {
		c.RecordWrite(200*nand.Microsecond, 1)
	}
	var fc nand.OpCounters
	fc.Programs[nand.OpHostData] = 100
	fc.Programs[nand.OpGC] = 50
	r := BuildReport("test", c, fc, nand.Second, 4096, nand.DefaultEnergy())
	if r.ReadMBps < 0.99 || r.ReadMBps > 1.01 {
		t.Errorf("ReadMBps = %v, want ~1", r.ReadMBps)
	}
	if r.WriteAmp != 1.5 {
		t.Errorf("WriteAmp = %v, want 1.5", r.WriteAmp)
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestRecordGC(t *testing.T) {
	c := NewCollector()
	c.RecordGC(32, 5*nand.Millisecond)
	c.RecordGC(16, 3*nand.Millisecond)
	if c.GCCount != 2 || c.GCPagesMoved != 48 {
		t.Fatalf("GC counters: %d moved %d", c.GCCount, c.GCPagesMoved)
	}
	if c.GCBusyTime != 8*nand.Millisecond {
		t.Fatalf("busy %v", c.GCBusyTime)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector()
	c.RecordRead(1, 1)
	c.RecordClass(ReadDouble)
	c.CMTLookups = 5
	c.DefineStreams([]string{"a"})
	c.RecordQueued(0, false, 3, 4, 1)
	c.Reset()
	if c.HostReads != 0 || c.CMTLookups != 0 || c.ReadClasses[ReadDouble] != 0 {
		t.Fatal("Reset incomplete")
	}
	if c.Streams() != nil || c.QueueWaitShare() != 0 {
		t.Fatal("Reset left open-loop state behind")
	}
}

func TestRecordQueuedDecomposition(t *testing.T) {
	c := NewCollector()
	c.DefineStreams([]string{"a", "b", "a"})
	c.RecordQueued(0, false, 30, 10, 1) // tenant a: total 40, wait 30
	c.RecordQueued(1, true, 0, 100, 2)  // tenant b: total 100, no wait
	c.RecordQueued(2, false, 10, 50, 1) // tenant a again (merged bucket)

	if got := c.ReadPercentile(100); got != 60 {
		t.Fatalf("total read P100 = %d, want 60", got)
	}
	// Wait share: (30+0+10) / (40+100+60) = 0.2
	if got := c.QueueWaitShare(); got != 0.2 {
		t.Fatalf("wait share = %v, want 0.2", got)
	}
	if got := c.MeanQueueWait(); got != nand.Time((30+0+10)/3) {
		t.Fatalf("mean wait = %d", got)
	}
	if got := c.MeanLatency(); got != nand.Time((40+100+60)/3) {
		t.Fatalf("mean latency = %d", got)
	}

	streams := c.Streams()
	if len(streams) != 2 {
		t.Fatalf("got %d buckets, want 2 (same-name streams merge)", len(streams))
	}
	a, b := streams[0], streams[1]
	if a.Name != "a" || a.Requests() != 2 || b.Name != "b" || b.Requests() != 1 {
		t.Fatalf("bucket routing wrong: %+v %+v", a, b)
	}
	if a.Percentile(100) != 60 || a.Mean() != 50 || a.MeanWait() != 20 {
		t.Fatalf("tenant a stats: p100=%d mean=%d wait=%d", a.Percentile(100), a.Mean(), a.MeanWait())
	}
	if got := a.WaitShare(); got != 0.4 { // (30+10)/(40+60)
		t.Fatalf("tenant a wait share = %v, want 0.4", got)
	}
	if b.WaitShare() != 0 {
		t.Fatalf("tenant b wait share = %v, want 0", b.WaitShare())
	}
}

// TestClosedLoopRecordsNoQueueWait: closed-loop samples carry no queue
// wait, also beside open-loop samples of one un-Reset collector, where the
// mean wait is over the open-loop requests alone.
func TestClosedLoopRecordsNoQueueWait(t *testing.T) {
	c := NewCollector()
	c.RecordRead(40, 1)
	c.RecordWrite(80, 1)
	if c.QueueWaitShare() != 0 || c.MeanQueueWait() != 0 {
		t.Fatal("closed-loop collector reports nonzero queue wait")
	}
	c.RecordQueued(0, false, 30, 50, 1)
	if got := c.MeanQueueWait(); got != 30 {
		t.Fatalf("mean wait = %d, want 30 (over the one open-loop request)", got)
	}
	if got := c.QueueWaitShare(); got != 30.0/200 {
		t.Fatalf("wait share = %v, want 30/200", got)
	}
}

func TestBuildReportOpenLoopFields(t *testing.T) {
	c := NewCollector()
	c.DefineStreams([]string{"web", "sys"})
	for i := 0; i < 128; i++ {
		c.RecordQueued(0, false, nand.Time(i), 40, 1)
	}
	for i := 0; i < 128; i++ {
		c.RecordQueued(1, true, 0, 200, 1)
	}
	var fc nand.OpCounters
	r := BuildReport("test", c, fc, nand.Second, 4096, nand.DefaultEnergy())
	if r.Requests != 256 {
		t.Fatalf("Requests = %d, want 256", r.Requests)
	}
	if r.IOPS != 256 {
		t.Fatalf("IOPS = %v, want 256 over one virtual second", r.IOPS)
	}
	if r.WaitShare <= 0 || r.MeanWait <= 0 {
		t.Fatal("queue-wait decomposition missing from report")
	}
	if len(r.Streams) != 2 || r.Streams[0].Name != "web" || r.Streams[1].Name != "sys" {
		t.Fatalf("stream reports: %+v", r.Streams)
	}
	if r.Streams[0].Requests != 128 || r.Streams[0].P99 == 0 {
		t.Fatalf("web stream report: %+v", r.Streams[0])
	}
	if r.Streams[1].WaitShare != 0 {
		t.Fatalf("sys stream should have no wait: %+v", r.Streams[1])
	}
}
