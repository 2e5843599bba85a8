// Package workload synthesizes the request streams the paper drives FEMU
// with: FIO-style micro patterns (§IV-B), Filebench personalities (Table I),
// a RocksDB/LSM db_bench model (§IV-D), and synthetic equivalents of the
// UMass WebSearch and SYSTOR '17 traces (Table II). All generators are
// deterministic given a seed.
package workload

import (
	"math/rand"

	"learnedftl/internal/sim"
)

// Pattern is a FIO access pattern.
type Pattern int

// FIO patterns.
const (
	SeqRead Pattern = iota
	RandRead
	SeqWrite
	RandWrite
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case SeqRead:
		return "seqread"
	case RandRead:
		return "randread"
	case SeqWrite:
		return "seqwrite"
	case RandWrite:
		return "randwrite"
	default:
		return "unknown"
	}
}

// IsWrite reports whether the pattern writes.
func (p Pattern) IsWrite() bool { return p == SeqWrite || p == RandWrite }

// FIO returns one generator per thread for the given pattern over a device
// of lp logical pages. Each request covers ioPages pages; each thread issues
// perThread requests. Sequential threads scan disjoint regions (FIO's
// per-job offset); random threads draw uniformly over the whole space, each
// from its own seeded source, value for value what rand.Rand.Int63n draws.
func FIO(p Pattern, lp int64, ioPages, threads, perThread int, seed int64) []sim.Generator {
	gens := make([]sim.Generator, threads)
	region := lp / int64(threads)
	n := lp - int64(ioPages) + 1 // random LPNs are drawn from [0, n)
	for th := range threads {
		g := &fioGen{req: sim.Request{Write: p.IsWrite(), Pages: ioPages}, left: perThread}
		switch p {
		case SeqRead, SeqWrite:
			g.base, g.region = int64(th)*region, region
			g.cursor = g.base
		case RandRead, RandWrite:
			g.src, g.n = rand.NewSource(seed+int64(th)*7919), n
			if n > 0 {
				g.max = int64((1 << 63) - 1 - (1<<63)%uint64(n))
			}
		}
		gens[th] = g
	}
	return gens
}

// fioGen is one FIO thread. A random thread owns its source and draws
// finished LPNs a batch at a time, never more than one batch ahead: one
// tight loop over the source keeps its state in cache, where a draw per
// request walks every thread's source state in turn. A batching generator
// must not share its source — the values it has drawn ahead are gone from
// the source's stream.
type fioGen struct {
	req   sim.Request // Write and Pages fixed; LPN of the latest request
	left  int         // requests still to issue
	avail int         // random: drawn LPNs left, at the tail of buf

	base, region, cursor int64 // sequential: the thread's region and position

	src    rand.Source // random: nil for a sequential thread
	n, max int64       // random: LPN range and rand.Rand.Int63n's rejection threshold
	buf    [64]int64
}

// Next implements sim.Generator.
func (g *fioGen) Next() (sim.Request, bool) {
	if g.left <= 0 {
		return sim.Request{}, false
	}
	if g.src == nil {
		pages := int64(g.req.Pages)
		if g.cursor+pages > g.base+g.region {
			g.cursor = g.base
		}
		g.req.LPN = g.cursor
		g.cursor += pages
	} else {
		if g.avail == 0 {
			g.refill()
		}
		g.req.LPN = g.buf[len(g.buf)-g.avail]
		g.avail--
	}
	g.left--
	return g.req, true
}

// refill draws the thread's next LPNs, as many as it has requests left up
// to a batch, into the tail of buf. It is rand.Rand.Int63n unrolled over
// the batch: the power-of-two mask, else rejection above max and v % n.
func (g *fioGen) refill() {
	src, n, max := g.src, g.n, g.max
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	g.avail = min(len(g.buf), g.left)
	dst := g.buf[len(g.buf)-g.avail:]
	if n&(n-1) == 0 {
		for i := range dst {
			dst[i] = src.Int63() & (n - 1)
		}
		return
	}
	for i := range dst {
		v := src.Int63()
		for v > max {
			v = src.Int63()
		}
		dst[i] = v % n
	}
}

// Warmup returns the paper's warm-up stream (§IV-B): one sequential fill of
// the device followed by `extra` device-capacities of random overwrites, all
// with large I/O (ioPages, the paper uses 128 pages = 512KB so LeaFTL's
// learned index "can be built normally").
func Warmup(lp int64, extra int, ioPages int, seed int64) []sim.Generator {
	rng := rand.New(rand.NewSource(seed))
	var cursor int64
	phase := 0
	written := int64(0)
	return []sim.Generator{sim.GenFunc(func() (sim.Request, bool) {
		n := int64(ioPages)
		if phase == 0 {
			if cursor >= lp {
				phase = 1
			} else {
				if cursor+n > lp {
					n = lp - cursor
				}
				r := sim.Request{Write: true, LPN: cursor, Pages: int(n)}
				cursor += n
				return r, true
			}
		}
		if written >= int64(extra)*lp {
			return sim.Request{}, false
		}
		lpn := rng.Int63n(lp - n + 1)
		lpn -= lpn % n // aligned large writes
		written += n
		return sim.Request{Write: true, LPN: lpn, Pages: int(n)}, true
	})}
}
