package workload

import (
	"math/rand"
	"runtime"
	"testing"

	"learnedftl/internal/sim"
)

// fioReference is FIO as a closure over rand.Rand.Int63n, one draw per
// request: the stream the batched generator must reproduce value for value.
func fioReference(p Pattern, lp int64, ioPages, threads, perThread int, seed int64) []sim.Generator {
	gens := make([]sim.Generator, threads)
	region := lp / int64(threads)
	for th := 0; th < threads; th++ {
		th := th
		rng := rand.New(rand.NewSource(seed + int64(th)*7919))
		issued := 0
		cursor := int64(th) * region
		gens[th] = sim.GenFunc(func() (sim.Request, bool) {
			if issued >= perThread {
				return sim.Request{}, false
			}
			issued++
			n := ioPages
			var lpn int64
			switch p {
			case SeqRead, SeqWrite:
				base := int64(th) * region
				if cursor+int64(n) > base+region {
					cursor = base
				}
				lpn = cursor
				cursor += int64(n)
			case RandRead, RandWrite:
				lpn = rng.Int63n(lp - int64(n) + 1)
			}
			return sim.Request{Write: p.IsWrite(), LPN: lpn, Pages: n}, true
		})
	}
	return gens
}

// TestFIOMatchesReference pins the batched generator to the reference
// stream: every request of every thread, and the exhaustion point, for all
// four patterns over LPN ranges (lp − ioPages + 1) that take Int63n's mask
// branch (a power of two, and 1), its modulo branch (odd), and its
// rejection loop (about a quarter of the source's values above the
// threshold), across batch boundaries.
func TestFIOMatchesReference(t *testing.T) {
	for _, p := range []Pattern{SeqRead, RandRead, SeqWrite, RandWrite} {
		for _, ioPages := range []int{1, 8, 128} {
			for _, n := range []int64{1 << 16, 1, 99_999, 3<<61 + 1} {
				lp := n + int64(ioPages) - 1
				for _, threads := range []int{1, 16, 32} {
					for _, perThread := range []int{0, 1, 63, 64, 65, 1000} {
						for _, seed := range []int64{0, 5, 977} {
							got := FIO(p, lp, ioPages, threads, perThread, seed)
							want := fioReference(p, lp, ioPages, threads, perThread, seed)
							for th := range got {
								for i := 0; ; i++ {
									g, gok := got[th].Next()
									w, wok := want[th].Next()
									if g != w || gok != wok {
										t.Fatalf("%v lp=%d io=%d threads=%d per=%d seed=%d: thread %d request %d = %+v,%v, want %+v,%v",
											p, lp, ioPages, threads, perThread, seed, th, i, g, gok, w, wok)
									}
									if !wok {
										break
									}
								}
								if _, ok := got[th].Next(); ok {
									t.Fatalf("%v: thread %d yields a request after exhaustion", p, th)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFIONextZeroAlloc: drawing requests, refills included, allocates
// nothing.
func TestFIONextZeroAlloc(t *testing.T) {
	for _, p := range []Pattern{SeqRead, RandRead} {
		g := FIO(p, 99_999, 1, 1, 1_000_000, 3)[0]
		allocs := testing.AllocsPerRun(5, func() {
			for range 4 * 64 { // four refills
				if _, ok := g.Next(); !ok {
					t.Fatal("generator exhausted")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: %.1f allocations per 256 requests, want 0", p, allocs)
		}
	}
}

// Package-level sinks keep what TestFIOHoldsOneBatch measures on the heap.
var (
	heldSource rand.Source
	heldGens   []sim.Generator
)

// heapBytes returns the bytes f allocates.
func heapBytes(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestFIOHoldsOneBatch pins the generator's laziness: a million-request
// random thread, built and drawn from, holds at most 1 KiB beyond its
// source — one batch of LPNs, never the stream.
func TestFIOHoldsOneBatch(t *testing.T) {
	srcBytes := heapBytes(func() { heldSource = rand.NewSource(1) })
	total := heapBytes(func() {
		heldGens = FIO(RandRead, 99_999, 1, 1, 1_000_000, 1)
		heldGens[0].Next()
	})
	if total-srcBytes > 1024 {
		t.Fatalf("a 10^6-request generator holds %d B beyond its %d B source, want <= 1024", total-srcBytes, srcBytes)
	}
	t.Logf("generator: %d B beyond its %d B source", total-srcBytes, srcBytes)
}
