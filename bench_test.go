package learnedftl

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"learnedftl/internal/learned"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// benchBudget sizes the per-figure macro benchmarks so the full -bench=.
// sweep finishes in a couple of minutes. Use cmd/ftlbench -scale quick (or
// paper) for the numbers recorded in EXPERIMENTS.md.
func benchBudget() Budget {
	return Budget{Requests: 6000, WarmExtra: 1, TraceScale: 0.004, Threads: 32}
}

// benchExperiment reruns one paper experiment per iteration and logs its
// table (visible with -v), so every figure and table of the evaluation
// section is regenerable straight from `go test -bench`.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := TinyConfig()
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiments([]string{id}, cfg, bud)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res[0].Table.String())
		}
	}
}

// Motivation figures.

func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Evaluation figures.

func BenchmarkFig14Throughput(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig16GCFreq(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17GCOverhead(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18Ablations(b *testing.B)   { benchExperiment(b, "fig18") }
func BenchmarkFig19RocksDB(b *testing.B)     { benchExperiment(b, "fig19") }
func BenchmarkFig20Filebench(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig21TailLatency(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkFig22Energy(b *testing.B)      { benchExperiment(b, "fig22") }
func BenchmarkTable2Traces(b *testing.B)     { benchExperiment(b, "table2") }

// GC subsystem experiments.

func BenchmarkGCSweepExp(b *testing.B) { benchExperiment(b, "gcsweep") }
func BenchmarkGCLatExp(b *testing.B)   { benchExperiment(b, "gclat") }

// BenchmarkGC guards the relocation hot path of the pluggable collector:
// sustained random single-page overwrites on a warmed device, where the
// dominant cost is victim selection + relocation + erase. gc/op and
// moved/op pin the collection cadence; allocs/op guards against the
// relocation loop regressing into per-page heap traffic.
func BenchmarkGC(b *testing.B) {
	cfg := TinyConfig()
	f, err := New(SchemeIdeal, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 2, 128, 1), 0)
	rng := rand.New(rand.NewSource(9))
	now := f.Flash().MaxChipBusy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	b.StopTimer()
	col := f.Collector()
	if b.N > 1000 && col.GCCount == 0 {
		b.Fatal("no GC in benchmark window")
	}
	b.ReportMetric(float64(col.GCCount)/float64(b.N), "gc/op")
	b.ReportMetric(float64(col.GCPagesMoved)/float64(b.N), "moved/op")
}

// BenchmarkFig15Ops regenerates Fig. 15 directly: the host-CPU cost of the
// three operations LearnedFTL adds (sorting a GTD entry's LPNs, training its
// model, one prediction).

func BenchmarkFig15Sorting(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lpns := make([]int64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range lpns {
			lpns[j] = rng.Int63n(1 << 20)
		}
		b.StartTimer()
		sort.Slice(lpns, func(x, y int) bool { return lpns[x] < lpns[y] })
	}
}

func fig15TrainingData() []int64 {
	rng := rand.New(rand.NewSource(2))
	vppns := make([]int64, 512)
	for i := range vppns {
		if rng.Intn(4) == 0 {
			vppns[i] = -1
			continue
		}
		vppns[i] = int64(1<<20) + int64(i) + int64(rng.Intn(3))
	}
	return vppns
}

func BenchmarkFig15Training(b *testing.B) {
	vppns := fig15TrainingData()
	m := learned.NewInPlaceModel(512, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainFull(1<<20, vppns)
	}
}

func BenchmarkFig15Prediction(b *testing.B) {
	vppns := fig15TrainingData()
	m := learned.NewInPlaceModel(512, 8)
	m.TrainFull(1<<20, vppns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(i & 511)
	}
}

// Micro-benchmarks of the substrate primitives.

func BenchmarkVPPNTranslate(b *testing.B) {
	codec := nand.NewAddrCodec(nand.PaperGeometry())
	total := int64(codec.Geometry().TotalPages())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := nand.PPN(int64(i) % total)
		if codec.ToPhysical(codec.ToVirtual(p)) != p {
			b.Fatal("bijection broken")
		}
	}
}

func BenchmarkPLRFitExact(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]learned.Point, 512)
	x := int64(0)
	for i := range pts {
		x += 1 + int64(rng.Intn(2))
		pts[i] = learned.Point{X: x, Y: x + int64(rng.Intn(2))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learned.FitExact(pts)
	}
}

func BenchmarkSegmentsFit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]learned.Point, 512)
	x, y := int64(0), int64(0)
	for i := range pts {
		x += 1 + int64(rng.Intn(2))
		y += int64(rng.Intn(3))
		pts[i] = learned.Point{X: x, Y: y}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learned.FitSegments(pts, 4, 256)
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func benchLearnedRandRead(b *testing.B, cfg Config) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		f, err := New(SchemeLearnedFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		warmDevice(f, bud)
		r := measureFIO(f, workload.RandRead, bud.Threads, 1, bud.Requests)
		if i == 0 {
			b.ReportMetric(r.ReadMBps, "MB/s")
			b.ReportMetric(r.ModelHitRatio*100, "model-hit-%")
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchLearnedRandRead(b, TinyConfig())
}

func BenchmarkAblationNoVPPN(b *testing.B) {
	cfg := TinyConfig()
	cfg.Learned.DisableVPPN = true
	benchLearnedRandRead(b, cfg)
}

func BenchmarkAblationNoSeqInit(b *testing.B) {
	cfg := TinyConfig()
	cfg.Learned.DisableSeqInit = true
	benchLearnedRandRead(b, cfg)
}

func BenchmarkAblationNoCrossGroup(b *testing.B) {
	cfg := TinyConfig()
	cfg.Learned.DisableCrossGroup = true
	benchLearnedRandRead(b, cfg)
}

// Micro-benchmarks of the translation hot paths. The cache-hit paths must
// stay at 0 allocs/op — run with -benchmem or rely on ReportAllocs to keep
// the allocation trajectory visible.

func BenchmarkCMTHit(b *testing.B) {
	c := mapping.NewCMT(1024)
	for i := int64(0); i < 1024; i++ {
		c.Insert(i, nand.PPN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(int64(i) & 1023); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkCMTMissEvictInsert(b *testing.B) {
	const capn = 1024
	c := mapping.NewCMT(capn)
	for i := int64(0); i < capn; i++ {
		c.Insert(i, nand.PPN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := int64(capn + i)
		c.Insert(lpn, nand.PPN(lpn), i%2 == 0)
		for c.NeedsEviction() {
			if _, ok := c.EvictLRU(); !ok {
				b.Fatal("eviction failed")
			}
		}
	}
}

// BenchmarkCMTLookupMissEvict is the demand-paging read miss as the schemes
// run it, over a full cache and uniformly random LPNs 33 times its size (the
// randread_cold shape): the lookup that misses, the insert of the fetched
// mapping, the eviction of the LRU entry.
func BenchmarkCMTLookupMissEvict(b *testing.B) {
	const capn, space = 4976, 33 * 4976
	c := mapping.NewCMT(capn)
	rng := rand.New(rand.NewSource(1))
	lpns := make([]int64, 1<<16)
	for i := range lpns {
		lpns[i] = rng.Int63n(space)
	}
	for i := 0; c.Len() < capn; i++ {
		c.Insert(lpns[i], nand.PPN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := lpns[i&(len(lpns)-1)]
		if _, ok := c.Lookup(lpn); ok {
			continue // 3 % of the draws: a hit
		}
		c.Insert(lpn, nand.PPN(i), false)
		for c.NeedsEviction() {
			c.EvictLRU()
		}
	}
}

// BenchmarkL2PColdGet is the table miss under every random read: one Get at
// a uniformly random LPN of the benchmark device's 165 888-entry map. The
// LPNs come from an inline xorshift so no index array competes for the cache
// the table is measured against.
func BenchmarkL2PColdGet(b *testing.B) {
	const lpns = 165888
	m := mapping.NewL2P(lpns)
	for l := int64(0); l < lpns; l++ {
		m.Set(l, nand.PPN(l))
	}
	x, sum := uint64(88172645463325252), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hi, _ := bits.Mul64(x, lpns)
		sum += int(m.Get(int64(hi)))
	}
	codecSink = sum
}

// BenchmarkCMTCleanRange is the batched write-back of one translation page:
// dirty eight of its 512 mappings, then clean the page's range. The cost
// must follow the eight, not the 512.
func BenchmarkCMTCleanRange(b *testing.B) {
	const capn, tp = 4096, mapping.EntriesPerTransPage
	c := mapping.NewCMT(capn)
	for i := int64(0); i < capn; i++ {
		c.Insert(i, nand.PPN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i) % (capn / tp) * tp
		for k := int64(0); k < 8; k++ {
			c.Insert(lo+k*61, nand.PPN(i), true)
		}
		if c.CleanRange(lo, lo+tp) != 8 {
			b.Fatal("CleanRange missed a dirty entry")
		}
	}
}

// The address codec on a geometry with no power-of-two field, so nothing
// about the speed rests on shifts: a full Decode, the single-field Chip the
// flash array asks for on every operation, and the VPPN→PPN conversion of
// LearnedFTL's write path.

func benchCodec() (nand.AddrCodec, int64) {
	g := nand.Geometry{Channels: 3, Ways: 5, Planes: 2, BlocksPerUnit: 7, PagesPerBlock: 11, PageSize: 4096}
	return nand.NewAddrCodec(g), int64(g.TotalPages())
}

var codecSink int

func BenchmarkAddrCodecDecode(b *testing.B) {
	codec, total := benchCodec()
	p := int64(0)
	for i := 0; i < b.N; i++ {
		a := codec.Decode(nand.PPN(p))
		codecSink += a.Channel + a.Way + a.Plane + a.Block + a.Page
		if p += 97; p >= total {
			p -= total
		}
	}
}

func BenchmarkAddrCodecChip(b *testing.B) {
	codec, total := benchCodec()
	p := int64(0)
	for i := 0; i < b.N; i++ {
		codecSink += codec.Chip(nand.PPN(p))
		if p += 97; p >= total {
			p -= total
		}
	}
}

func BenchmarkAddrCodecToPhysical(b *testing.B) {
	codec, total := benchCodec()
	v := int64(0)
	for i := 0; i < b.N; i++ {
		codecSink += int(codec.ToPhysical(nand.VPPN(v)))
		if v += 97; v >= total {
			v -= total
		}
	}
}

// BenchmarkSequentialInit1 is the model update of one 4 KiB write
// (§III-E1 with a run of one) on a model whose piece array is full — the
// case every random write hits once the device is warm. It times the
// refusal on a full array: 98 % of the calls are refused, decided from the
// model's per-piece bit counts without building the candidate array; the
// rest install and recount.
func BenchmarkSequentialInit1(b *testing.B) {
	m := learned.NewInPlaceModel(512, learned.DefaultMaxPieces)
	for i := 0; i < learned.DefaultMaxPieces; i++ {
		m.SequentialInit(i*64, 32, int64(1000*i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 37) & 511
		m.Invalidate(off)
		m.SequentialInit(off, 1, int64(i))
	}
}

// BenchmarkLSMTInsert is LeaFTL's steady state after a collection: a
// retrained segment shadows the one the previous round inserted over the
// same LPNs, which the compaction drops. Wider, older segments stay partly
// visible.
func BenchmarkLSMTInsert(b *testing.B) {
	const nseg = 64
	t := learned.NewLSMT()
	for s := 0; s < nseg; s++ {
		t.Insert([]learned.Segment{{S: int64(s * 16), L: 16, K: 1}})
	}
	seg := make([]learned.Segment, 1)
	insert := func(i int) {
		seg[0] = learned.Segment{S: int64(i % nseg * 16), L: 8, K: 1, I: float64(i)}
		t.Insert(seg)
		t.CompactShadowed()
	}
	for i := 0; i < 2*nseg; i++ {
		insert(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert(i)
	}
}

// BenchmarkSimRunSchedule measures the engine's per-request scheduling cost
// (one tournament-tree advance over 256 closed-loop threads; the tree alone
// is BenchmarkSchedAdvance in internal/sched) against the ideal FTL,
// whose translation is a single slice load — so scheduling dominates.
func BenchmarkSimRunSchedule(b *testing.B) {
	cfg := TinyConfig()
	f, err := New(SchemeIdeal, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 0, 128, 1), 0)
	const threads = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gens := workload.FIO(workload.RandRead, lp, 1, threads, 64, int64(i))
		f.Collector().Reset()
		f.Flash().ResetCounters()
		b.StartTimer()
		if res := sim.Run(f, gens, 0); res.Requests != threads*64 {
			b.Fatalf("issued %d", res.Requests)
		}
	}
}

// BenchmarkSnapshot guards the snapshot serialization hot path: one full
// device snapshot (flash states, OOB, L2P, GTD, caches, allocator) of a
// warmed tiny device per iteration, with bytes/op reported so encoding
// regressions in either speed or size are visible.
func BenchmarkSnapshot(b *testing.B) {
	f, err := newWarmed(SchemeDFTL, TinyConfig(), benchBudget())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := SnapshotDevice(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SnapshotDevice(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore is BenchmarkSnapshot's read side: decode + rebuild of
// the same warmed device.
func BenchmarkRestore(b *testing.B) {
	f, err := newWarmed(SchemeDFTL, TinyConfig(), benchBudget())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := SnapshotDevice(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreDevice(SchemeDFTL, TinyConfig(), snap); err != nil {
			b.Fatal(err)
		}
	}
}
