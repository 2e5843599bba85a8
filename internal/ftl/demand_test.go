package ftl

import (
	"math/rand"
	"slices"
	"testing"

	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
)

// fillFromLPN is Demand.Fill as it was when the prefetch loop started at
// lpn itself: the missed LPN was probed and inserted inside the loop, then
// inserted again to end up MRU.
func fillFromLPN(d *Demand, lpn int64, remaining int, l2p mapping.L2P) {
	if d.tp {
		for l, hi := lpn, lpn+d.prefetchSpan(lpn, remaining); l < hi; l++ {
			if p := l2p.Get(l); p != nand.InvalidPPN && !d.CMT.Contains(l) {
				d.CMT.Insert(l, p, false)
			}
		}
	}
	d.CMT.Insert(lpn, l2p.Get(lpn), false)
}

// TestFillMatchesFillFromLPN drives Fill and its former sequence on twin
// caches through random reads, writes and length changes, with prefetch
// spans above 1 and caches smaller than a span: after every Fill, and again
// after its Drain, the two caches export the same entries, dirty flags and
// recency order, and their drains wrote back the same translation pages.
func TestFillMatchesFillFromLPN(t *testing.T) {
	const entriesPerTP, pages = 16, 256
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l2p := mapping.NewL2P(pages)
		for lpn := int64(0); lpn < pages; lpn++ {
			if rng.Intn(4) != 0 {
				l2p.Set(lpn, nand.PPN(rng.Intn(1<<20)))
			}
		}
		capacity := 1 + rng.Intn(entriesPerTP-1)
		var wbNew, wbOld []int
		cur := NewDemand(capacity, entriesPerTP, true, func(tpn int, now nand.Time) nand.Time {
			wbNew = append(wbNew, tpn)
			return now + 1
		})
		old := NewDemand(capacity, entriesPerTP, true, func(tpn int, now nand.Time) nand.Time {
			wbOld = append(wbOld, tpn)
			return now + 1
		})
		for step := 0; step < 400; step++ {
			lpn := rng.Int63n(pages)
			n := 1 + rng.Intn(2*entriesPerTP)
			cur.Observe(n)
			old.Observe(n)
			switch r := rng.Intn(10); {
			case r < 3: // a host write: a dirty insert
				p := nand.PPN(rng.Intn(1 << 20))
				l2p.Set(lpn, p)
				cur.CMT.Insert(lpn, p, true)
				old.CMT.Insert(lpn, p, true)
			case r < 9: // a read: a miss fills, a hit only promotes
				_, hit := cur.CMT.Lookup(lpn)
				if _, oldHit := old.CMT.Lookup(lpn); oldHit != hit {
					t.Fatalf("seed %d step %d: lpn %d hit %v in one cache, %v in its twin", seed, step, lpn, hit, oldHit)
				}
				if !hit {
					cur.Fill(lpn, n, l2p)
					fillFromLPN(&old, lpn, n, l2p)
				}
			default: // Fill regardless of what the cache holds
				cur.Fill(lpn, n, l2p)
				fillFromLPN(&old, lpn, n, l2p)
			}
			if got, want := cur.CMT.Export(), old.CMT.Export(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: overshot cache exports\n%v\nits twin\n%v", seed, step, got, want)
			}
			if a, b := cur.Drain(0), old.Drain(0); a != b {
				t.Fatalf("seed %d step %d: drains ended at %d and %d", seed, step, a, b)
			}
			if got, want := cur.CMT.Export(), old.CMT.Export(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: cache exports\n%v\nits twin\n%v", seed, step, got, want)
			}
			if cur.CMT.Len() != old.CMT.Len() || cur.CMT.DirtyLen() != old.CMT.DirtyLen() {
				t.Fatalf("seed %d step %d: sizes (%d, %d dirty) against (%d, %d dirty)", seed, step,
					cur.CMT.Len(), cur.CMT.DirtyLen(), old.CMT.Len(), old.CMT.DirtyLen())
			}
			if !slices.Equal(wbNew, wbOld) {
				t.Fatalf("seed %d step %d: write-backs %v against %v", seed, step, wbNew, wbOld)
			}
		}
	}
}
