package learnedftl

import (
	"math/bits"
	"math/rand"
	"testing"

	"learnedftl/internal/learned"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

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

// Micro-benchmarks of the translation hot paths, each at 0 allocs/op
// (TestCMTWritebackZeroAlloc pins the CMT's lookup, insert, eviction and
// write-back; bench/ times its hit and its miss-insert-evict cycle as
// mapping.cmt_hit_ns and mapping.cmt_miss_evict_ns).

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

// BenchmarkCMTGroupFixup is the cache fix-up after a LearnedFTL group
// collection moved every LPN of one group, on the benchmark device (a
// 2 488-entry cache, groups of 6 144 LPNs) and on the paper's 32 GiB device
// (231 014 entries, groups of 32 768): one pass over the cache's pool
// (scan, what relocateGroup runs) against one index probe per moved LPN
// (probe). The pass reads the pool in order and the probes land at random,
// so the scan wins on both devices although it visits up to seven times
// as many entries.
func BenchmarkCMTGroupFixup(b *testing.B) {
	for _, d := range []struct {
		name              string
		lpns, cache, span int64
	}{
		{"bench", 165888, 2488, 6144},
		{"paper", 7700480, 231014, 32768},
	} {
		c := mapping.NewCMT(int(d.cache))
		l2p := mapping.NewL2P(d.lpns)
		rng := rand.New(rand.NewSource(1))
		for c.Len() < int(d.cache) {
			c.Insert(rng.Int63n(d.lpns), 0, rng.Intn(2) == 0)
		}
		groups := d.lpns / d.span
		b.Run(d.name+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := int64(i) % groups * d.span
				c.RefreshRange(lo, lo+d.span, l2p)
			}
		})
		b.Run(d.name+"/probe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := int64(i) % groups * d.span
				for l := lo; l < lo+d.span; l++ {
					c.UpdatePPN(l, nand.PPN(l))
				}
			}
		})
	}
}

// The address codec on a geometry whose fields but its plane count are not
// powers of two, so these time the multiply-high path that the shipped
// geometries, all powers of two, take a shift for: a full Decode, the
// single-field Chip the flash array asks for on every operation, and the
// VPPN→PPN conversion of LearnedFTL's write path.

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
