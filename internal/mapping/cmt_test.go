package mapping

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"learnedftl/internal/nand"
)

func TestCMTLookupInsert(t *testing.T) {
	c := NewCMT(4)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(1, 100, false)
	if p, ok := c.Lookup(1); !ok || p != 100 {
		t.Fatalf("Lookup(1) = %d,%v", p, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCMTLRUOrder(t *testing.T) {
	c := NewCMT(3)
	c.Insert(1, 10, false)
	c.Insert(2, 20, false)
	c.Insert(3, 30, false)
	c.Lookup(1) // promote 1; LRU is now 2
	c.Insert(4, 40, false)
	if !c.NeedsEviction() {
		t.Fatal("over-capacity cache does not need eviction")
	}
	e, ok := c.EvictLRU()
	if !ok || e.LPN != 2 {
		t.Fatalf("evicted %+v, want LPN 2", e)
	}
	if c.NeedsEviction() {
		t.Fatal("still needs eviction after evicting to capacity")
	}
}

func TestCMTDirtyTracking(t *testing.T) {
	c := NewCMT(4)
	c.Insert(1, 10, true)
	c.Insert(2, 20, false)
	if c.DirtyLen() != 1 {
		t.Fatalf("DirtyLen = %d", c.DirtyLen())
	}
	// Upgrading clean→dirty and downgrading via MarkClean.
	c.Insert(2, 21, true)
	if c.DirtyLen() != 2 {
		t.Fatalf("DirtyLen = %d after upgrade", c.DirtyLen())
	}
	c.MarkClean(1)
	if c.DirtyLen() != 1 {
		t.Fatalf("DirtyLen = %d after MarkClean", c.DirtyLen())
	}
	if e, _ := c.Peek(1); e.Dirty {
		t.Fatal("entry still dirty after MarkClean")
	}
	// Eviction of dirty entry decrements the counter.
	c.Lookup(1)
	if e, ok := c.EvictLRU(); !ok || e.LPN != 2 || !e.Dirty {
		t.Fatalf("evicted %+v", e)
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen = %d after dirty eviction", c.DirtyLen())
	}
}

func TestCMTInsertUpdatesInPlace(t *testing.T) {
	c := NewCMT(2)
	c.Insert(1, 10, false)
	c.Insert(1, 11, true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after re-insert", c.Len())
	}
	if p, _ := c.Lookup(1); p != 11 {
		t.Fatalf("PPN = %d", p)
	}
}

func TestCMTZeroCapacity(t *testing.T) {
	c := NewCMT(0)
	c.Insert(1, 10, false)
	if c.Len() != 0 {
		t.Fatal("zero-cap cache stored an entry")
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("zero-cap cache hit")
	}
}

func TestCMTRemove(t *testing.T) {
	c := NewCMT(4)
	c.Insert(1, 10, true)
	e, ok := c.Remove(1)
	if !ok || e.PPN != 10 {
		t.Fatalf("Remove = %+v,%v", e, ok)
	}
	if c.Len() != 0 || c.DirtyLen() != 0 {
		t.Fatal("Remove left residue")
	}
	if _, ok := c.Remove(99); ok {
		t.Fatal("Remove of absent lpn succeeded")
	}
}

func TestCMTCleanRange(t *testing.T) {
	c := NewCMT(10)
	c.Insert(100, 1, true)
	c.Insert(101, 2, false)
	c.Insert(102, 3, true)
	c.Insert(600, 4, true) // outside range
	if got := c.CleanRange(100, 512); got != 2 {
		t.Fatalf("CleanRange cleaned %d entries, want 2", got)
	}
	for _, lpn := range []int64{100, 101, 102} {
		if e, _ := c.Peek(lpn); e.Dirty {
			t.Fatalf("lpn %d still dirty after CleanRange", lpn)
		}
	}
	if e, _ := c.Peek(600); !e.Dirty || c.DirtyLen() != 1 {
		t.Fatalf("CleanRange touched an entry outside its range: %+v, DirtyLen %d", e, c.DirtyLen())
	}
	if got := c.CleanRange(100, 512); got != 0 {
		t.Fatalf("second CleanRange cleaned %d entries", got)
	}
}

// naiveCMT is the CMT's dirty tracking by definition: a flag per cached
// entry, and a range clean that scans every cached entry.
type naiveCMT map[int64]Entry

func (n naiveCMT) cleanRange(lo, hi int64) int {
	cleaned := 0
	for lpn, e := range n {
		if e.Dirty && lpn >= lo && lpn < hi {
			e.Dirty = false
			n[lpn] = e
			cleaned++
		}
	}
	return cleaned
}

func (n naiveCMT) dirtyLen() int {
	d := 0
	for _, e := range n {
		if e.Dirty {
			d++
		}
	}
	return d
}

// sameAsNaive checks every cached entry, flag and counter of c against n.
func sameAsNaive(c *CMT, n naiveCMT) bool {
	if c.Len() != len(n) || c.DirtyLen() != n.dirtyLen() {
		return false
	}
	for lpn, want := range n {
		if got, ok := c.Peek(lpn); !ok || got != want {
			return false
		}
	}
	return true
}

// TestCMTDirtyChainsMatchNaive drives random operation sequences through the
// chained CMT and the brute-force definition, over translation pages of
// several widths (the schemes' tests shrink EntriesPerTP), with an Export →
// re-Insert round trip in the middle of every sequence.
func TestCMTDirtyChainsMatchNaive(t *testing.T) {
	for _, tp := range []int{1, 7, 32, EntriesPerTransPage} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			capn := 1 + rng.Intn(40)
			space := int64(4*tp + 3) // a few pages and a ragged last one
			c := NewCMTFor(capn, tp)
			n := naiveCMT{}
			for op := 0; op < 600; op++ {
				lpn := rng.Int63n(space)
				switch rng.Intn(8) {
				case 0, 1:
					e := Entry{LPN: lpn, PPN: nand.PPN(rng.Intn(1000)), Dirty: rng.Intn(3) > 0}
					c.Insert(lpn, e.PPN, e.Dirty)
					n[lpn] = e
					for c.NeedsEviction() {
						ev, _ := c.EvictLRU()
						if ev != n[ev.LPN] {
							return false
						}
						delete(n, ev.LPN)
					}
				case 2:
					c.MarkClean(lpn)
					if e, ok := n[lpn]; ok {
						e.Dirty = false
						n[lpn] = e
					}
				case 3:
					ev, ok := c.Remove(lpn)
					if want, had := n[lpn]; ok != had || ev != want {
						return false
					}
					delete(n, lpn)
				case 4:
					ppn := nand.PPN(rng.Intn(1000))
					if c.UpdatePPN(lpn, ppn) {
						e := n[lpn]
						e.PPN = ppn
						n[lpn] = e
					}
				case 5: // one translation page, as the schemes call it
					lo := lpn / int64(tp) * int64(tp)
					if c.CleanRange(lo, lo+int64(tp)) != n.cleanRange(lo, lo+int64(tp)) {
						return false
					}
				case 6: // any range, empty and page-straddling ones included
					lo, hi := lpn, rng.Int63n(space+1)
					if c.CleanRange(lo, hi) != n.cleanRange(lo, hi) {
						return false
					}
				case 7:
					if ev, ok := c.EvictLRU(); ok {
						if ev != n[ev.LPN] {
							return false
						}
						delete(n, ev.LPN)
					}
				}
				if op == 300 {
					restored := NewCMTFor(capn, tp)
					for _, e := range c.Export() {
						restored.Insert(e.LPN, e.PPN, e.Dirty)
					}
					c = restored
				}
				if !sameAsNaive(c, n) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("EntriesPerTP %d: %v", tp, err)
		}
	}
}

// TestCMTWritebackZeroAlloc pins the CMT's per-request paths at zero
// allocations: a dirty insert, a lookup hit that moves an entry to the
// front, a lookup miss, the eviction the insert forces, and the CleanRange
// of the victim's translation page.
func TestCMTWritebackZeroAlloc(t *testing.T) {
	const capn, tp = 64, 16
	c := NewCMTFor(capn, tp)
	space := int64(8 * capn)
	next := int64(0)
	c.Insert(space-5, nand.PPN(space-5), false) // the first step's lookup hit
	step := func() {
		c.Insert(next, nand.PPN(next), true)
		prev := (next + space - 5) % space // inserted one step back, now second
		if ppn, ok := c.Lookup(prev); !ok || ppn != nand.PPN(prev) {
			t.Fatalf("Lookup(%d) = %d, %v; want a hit", prev, ppn, ok)
		}
		if _, ok := c.Lookup(space + next); ok {
			t.Fatalf("Lookup(%d) hit an LPN never inserted", space+next)
		}
		next = (next + 5) % space
		for c.NeedsEviction() {
			if e, _ := c.EvictLRU(); e.Dirty {
				lo := e.LPN / tp * tp
				c.CleanRange(lo, lo+tp)
			}
		}
	}
	for i := int64(0); i < 2*space; i++ { // reach every chain head and index bucket once
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("insert + lookups + dirty evict + CleanRange allocate %.0f times per run", n)
	}
}

func TestCMTUpdatePPN(t *testing.T) {
	c := NewCMT(4)
	c.Insert(1, 10, true)
	if !c.UpdatePPN(1, 99) {
		t.Fatal("UpdatePPN failed")
	}
	e, _ := c.Peek(1)
	if e.PPN != 99 || !e.Dirty {
		t.Fatalf("entry after UpdatePPN: %+v", e)
	}
	if c.UpdatePPN(42, 1) {
		t.Fatal("UpdatePPN of absent lpn succeeded")
	}
}

// TestCMTRefreshRange: the pass rewrites exactly the cached entries in
// [lo, hi) from the L2P, keeps every entry's recency and dirty flag, and
// brings back no removed entry.
func TestCMTRefreshRange(t *testing.T) {
	c := NewCMT(8)
	l2p := NewL2P(16)
	for lpn := int64(0); lpn < 8; lpn++ {
		c.Insert(lpn, nand.PPN(lpn), lpn%2 == 0)
		l2p.Set(lpn, nand.PPN(100+lpn))
	}
	c.Remove(5)
	c.Lookup(2) // recency differs from insertion order
	c.RefreshRange(3, 7, l2p)
	want := []Entry{{0, 0, true}, {1, 1, false}, {3, 103, false}, {4, 104, true},
		{6, 106, true}, {7, 7, false}, {2, 2, true}}
	if got := c.Export(); !slices.Equal(got, want) {
		t.Fatalf("after RefreshRange(3, 7): %+v, want %+v", got, want)
	}
}

// Property: Len never exceeds cap+1 between Insert and eviction drain, the
// dirty counter always equals the number of dirty entries, and lookups
// return the most recently inserted PPN.
func TestCMTInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := 1 + rng.Intn(20)
		c := NewCMT(capn)
		shadow := map[int64]Entry{}
		for op := 0; op < 300; op++ {
			lpn := int64(rng.Intn(40))
			switch rng.Intn(4) {
			case 0, 1:
				e := Entry{LPN: lpn, PPN: nand.PPN(rng.Intn(1000)), Dirty: rng.Intn(2) == 0}
				c.Insert(lpn, e.PPN, e.Dirty)
				shadow[lpn] = e
				for c.NeedsEviction() {
					ev, ok := c.EvictLRU()
					if !ok {
						return false
					}
					delete(shadow, ev.LPN)
				}
			case 2:
				if p, ok := c.Lookup(lpn); ok {
					if shadow[lpn].PPN != p {
						return false
					}
				}
			case 3:
				c.Remove(lpn)
				delete(shadow, lpn)
			}
			if c.Len() != len(shadow) || c.Len() > capn {
				return false
			}
			dirty := 0
			for _, e := range shadow {
				if e.Dirty {
					dirty++
				}
			}
			if dirty != c.DirtyLen() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGTDBasics(t *testing.T) {
	g := NewGTD(8)
	if g.NumTPNs() != 8 {
		t.Fatalf("NumTPNs = %d", g.NumTPNs())
	}
	if g.Written(3) {
		t.Fatal("fresh GTD entry claims written")
	}
	if g.Lookup(3) != nand.InvalidPPN {
		t.Fatal("fresh GTD entry has a location")
	}
	g.Update(3, 1234)
	if !g.Written(3) || g.Lookup(3) != 1234 {
		t.Fatal("Update/Lookup mismatch")
	}
}

func TestTPNOfAndRangeOf(t *testing.T) {
	if TPNOf(0) != 0 || TPNOf(511) != 0 || TPNOf(512) != 1 {
		t.Fatal("TPNOf wrong")
	}
	lo, hi := RangeOf(2)
	if lo != 1024 || hi != 1536 {
		t.Fatalf("RangeOf(2) = %d,%d", lo, hi)
	}
	for _, lpn := range []int64{0, 511, 512, 100000} {
		lo, hi := RangeOf(TPNOf(lpn))
		if lpn < lo || lpn >= hi {
			t.Fatalf("lpn %d outside RangeOf(TPNOf) = [%d,%d)", lpn, lo, hi)
		}
	}
}

// TestCMTCapacityOne exercises the smallest useful cache: every insert of a
// new LPN pushes the previous one over capacity and through the pool.
func TestCMTCapacityOne(t *testing.T) {
	c := NewCMT(1)
	for i := int64(0); i < 10; i++ {
		c.Insert(i, nand.PPN(i*10), i%2 == 0)
		if c.NeedsEviction() {
			e, ok := c.EvictLRU()
			if !ok {
				t.Fatal("EvictLRU failed while over capacity")
			}
			if e.LPN != i-1 {
				t.Fatalf("evicted LPN %d, want %d", e.LPN, i-1)
			}
		}
		if c.Len() != 1 {
			t.Fatalf("Len = %d, want 1", c.Len())
		}
		if p, ok := c.Lookup(i); !ok || p != nand.PPN(i*10) {
			t.Fatalf("Lookup(%d) = %d,%v", i, p, ok)
		}
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen = %d after evicting all dirty entries", c.DirtyLen())
	}
}

// TestCMTPoolRecycling drives eviction and re-insert cycles well past the
// pool size and checks the node pool is reused instead of growing: the
// backing slice must never exceed capacity+1 slots.
func TestCMTPoolRecycling(t *testing.T) {
	const capn = 8
	c := NewCMT(capn)
	for round := 0; round < 50; round++ {
		for i := 0; i < capn+1; i++ {
			lpn := int64(round*(capn+1) + i)
			c.Insert(lpn, nand.PPN(lpn), round%2 == 0)
			for c.NeedsEviction() {
				if _, ok := c.EvictLRU(); !ok {
					t.Fatal("EvictLRU failed")
				}
			}
		}
	}
	if got := len(c.nodes); got > capn+1 {
		t.Fatalf("node pool grew to %d slots, want <= %d", got, capn+1)
	}
	if c.Len() != capn {
		t.Fatalf("Len = %d, want %d", c.Len(), capn)
	}
}

// TestCMTEvictReinsertSameLPN checks an evicted LPN can come back cleanly
// (the demand-paging pattern: miss, fetch, insert).
func TestCMTEvictReinsertSameLPN(t *testing.T) {
	c := NewCMT(2)
	c.Insert(1, 10, true)
	c.Insert(2, 20, false)
	c.Insert(3, 30, false)
	e, ok := c.EvictLRU()
	if !ok || e.LPN != 1 || !e.Dirty {
		t.Fatalf("evicted %+v, want dirty LPN 1", e)
	}
	c.Insert(1, 11, false)
	if p, ok := c.Lookup(1); !ok || p != 11 {
		t.Fatalf("re-inserted Lookup(1) = %d,%v", p, ok)
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen = %d, want 0 (re-insert was clean)", c.DirtyLen())
	}
	// Recency after re-insert: 2 is now LRU.
	if e, _ := c.EvictLRU(); e.LPN != 2 {
		t.Fatalf("evicted LPN %d, want 2", e.LPN)
	}
}

// indexKeys returns a key set built to stress the open-addressed table of a
// CMT of the given capacity: LPN 0 and the largest LPN, per chosen home
// slot several LPNs that collide there — the last slots and the first, so
// clusters wrap the end of the table and interleave — and a few arbitrary
// ones.
func indexKeys(c *CMT, rng *rand.Rand) []int64 {
	slots := len(c.table)
	keys := []int64{0, math.MaxInt64}
	want := map[int]int{slots - 2: 3, slots - 1: 5, 0: 3, 1: 2}
	for lpn := int64(1); len(want) > 0; lpn++ {
		if h := c.home(lpn); want[h] > 0 {
			keys = append(keys, lpn)
			if want[h]--; want[h] == 0 {
				delete(want, h)
			}
		}
	}
	for i := 0; i < 6; i++ {
		keys = append(keys, rng.Int63())
	}
	return keys
}

// smallLPN says whether the test may mark lpn dirty: the dirty chains keep
// one head per translation page up to the highest dirty LPN, which the
// arbitrary 63-bit keys here would blow up.
func smallLPN(lpn int64) bool { return lpn < 1<<20 }

// checkIndex compares every key's Peek with the model and counts the
// table's occupied slots: a key the backward shift stranded behind an empty
// slot shows as a miss, a slot left behind as a surplus.
func checkIndex(t *testing.T, c *CMT, model map[int64]int32, keys []int64) {
	t.Helper()
	for _, k := range keys {
		e, ok := c.Peek(k)
		want, had := model[k]
		if ok != had || (ok && (e.LPN != k || int32(e.PPN) != want)) {
			t.Fatalf("key %d: cached (%v,%v), model (%v,%v)", k, e.PPN, ok, want, had)
		}
		if c.Contains(k) != had {
			t.Fatalf("key %d: Contains = %v, model %v", k, !had, had)
		}
	}
	used := 0
	for _, n := range c.table {
		if n != nilNode {
			used++
		}
	}
	if used != len(model) || c.Len() != len(model) {
		t.Fatalf("%d slots used, Len %d, model holds %d", used, c.Len(), len(model))
	}
}

// TestCMTIndexMatchesMap drives the LPN index through random put / get /
// delete against a Go map, never holding more than capacity+1 entries — so
// the table must not grow — over keys chosen to collide.
func TestCMTIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capn = 15
		c := NewCMT(capn)
		slots := len(c.table)
		if slots < 2*(capn+1) {
			t.Fatalf("table of %d slots for capacity %d: over half full at capacity+1", slots, capn)
		}
		keys := indexKeys(c, rng)
		model := map[int64]int32{}
		for op := 0; op < 2000; op++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(5) {
			case 0, 1:
				if _, had := model[k]; !had && len(model) == capn+1 {
					continue // the schemes never overshoot by more than one
				}
				v := rng.Int31()
				c.Insert(k, nand.PPN(v), smallLPN(k) && rng.Intn(2) == 0)
				model[k] = v
			case 2:
				p, ok := c.Lookup(k)
				if want, had := model[k]; ok != had || (ok && int32(p) != want) {
					t.Fatalf("seed %d op %d: Lookup(%d) = (%d,%v), model (%d,%v)", seed, op, k, p, ok, want, had)
				}
			case 3:
				_, ok := c.Remove(k)
				if _, had := model[k]; ok != had {
					t.Fatalf("seed %d op %d: Remove(%d) = %v, model %v", seed, op, k, ok, had)
				}
				delete(model, k)
			case 4:
				if e, ok := c.EvictLRU(); ok {
					if want, had := model[e.LPN]; !had || int32(e.PPN) != want {
						t.Fatalf("seed %d op %d: evicted %+v, model (%d,%v)", seed, op, e, want, had)
					}
					delete(model, e.LPN)
				}
			}
			checkIndex(t, c, model, keys)
		}
		if len(c.table) != slots {
			t.Fatalf("seed %d: table grew from %d to %d slots within capacity+1", seed, slots, len(c.table))
		}
	}
}

// TestCMTIndexBackwardShift removes from the middle of a cluster that
// wraps the end of the table, with a key of a later home slot caught in it.
func TestCMTIndexBackwardShift(t *testing.T) {
	c := NewCMT(7) // 16 slots
	last := len(c.table) - 1
	var atLast, atZero []int64
	for lpn := int64(1); len(atLast) < 4 || len(atZero) < 1; lpn++ {
		switch h := c.home(lpn); {
		case h == last && len(atLast) < 4:
			atLast = append(atLast, lpn)
		case h == 0 && len(atZero) < 1:
			atZero = append(atZero, lpn)
		}
	}
	// Slots last,0,1,2 take the four colliding keys; the home-0 key lands
	// behind them in slot 3.
	keys := append(append([]int64{}, atLast...), atZero...)
	model := map[int64]int32{}
	for i, k := range keys {
		c.Insert(k, nand.PPN(i), false)
		model[k] = int32(i)
	}
	if c.table[last] == nilNode || c.table[3] == nilNode || c.table[4] != nilNode {
		t.Fatalf("cluster not laid out as expected: %v", c.table)
	}
	// Removing the key in slot 0 pulls slots 1..3 back by one; the home-0
	// key may move to slot 2 but no further.
	c.Remove(atLast[1])
	delete(model, atLast[1])
	checkIndex(t, c, model, keys)
	if c.table[3] != nilNode {
		t.Fatalf("hole not closed at the cluster's end: %v", c.table)
	}
	// Removing the key in the last slot must not pull the home-0 key across
	// the wrap into it.
	c.Remove(atLast[0])
	delete(model, atLast[0])
	checkIndex(t, c, model, keys)
	if n := c.table[last]; n == nilNode || c.nodes[n].lpn == atZero[0] {
		t.Fatalf("home-0 key moved before its home slot: %v", c.table)
	}
}

// TestCMTIndexOvershoot: a caller that never evicts pushes the cache far
// past capacity+1. The table grows with the pool, keeps every key
// reachable, and empties completely.
func TestCMTIndexOvershoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCMT(4)
	slots := len(c.table)
	keys := []int64{0, math.MaxInt64}
	for i := 0; i < 200; i++ {
		keys = append(keys, rng.Int63())
	}
	model := map[int64]int32{}
	for i, k := range keys {
		c.Insert(k, nand.PPN(i), smallLPN(k))
		model[k] = int32(i)
		checkIndex(t, c, model, keys)
		if 2*c.Len() > len(c.table) {
			t.Fatalf("table over half full: %d entries in %d slots", c.Len(), len(c.table))
		}
	}
	if len(c.table) == slots {
		t.Fatal("table did not grow")
	}
	if got := c.Export(); len(got) != len(keys) || got[0].LPN != keys[0] || got[len(got)-1].LPN != keys[len(keys)-1] {
		t.Fatal("growth disturbed the recency order")
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if _, ok := c.Remove(k); !ok {
			t.Fatalf("key %d lost", k)
		}
		delete(model, k)
		checkIndex(t, c, model, keys)
	}
}

// TestCMTIndexZeroCapacity: the cache that stores nothing still answers
// every query, at both ends of the LPN range.
func TestCMTIndexZeroCapacity(t *testing.T) {
	for _, capn := range []int{0, -3} {
		c := NewCMT(capn)
		for _, k := range []int64{0, 1, math.MaxInt64} {
			c.Insert(k, 7, smallLPN(k))
			if _, ok := c.Lookup(k); ok || c.Contains(k) || c.UpdatePPN(k, 9) {
				t.Fatalf("cap %d: key %d found in a cache that stores nothing", capn, k)
			}
			if _, ok := c.Remove(k); ok {
				t.Fatalf("cap %d: removed key %d", capn, k)
			}
			c.MarkClean(k)
		}
		if _, ok := c.EvictLRU(); ok || c.Len() != 0 || c.DirtyLen() != 0 || c.NeedsEviction() {
			t.Fatalf("cap %d: cache not empty", capn)
		}
	}
}
