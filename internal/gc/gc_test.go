package gc

import (
	"errors"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

func testFlash(t *testing.T) *nand.Flash {
	t.Helper()
	g := nand.Geometry{Channels: 2, Ways: 2, Planes: 1, BlocksPerUnit: 4, PagesPerBlock: 8, PageSize: 4096}
	return mustFlash(g)
}

// mustFlash is the test-only shorthand for geometries built inline.
func mustFlash(g nand.Geometry) *nand.Flash {
	fl, err := nand.NewFlash(g, nand.DefaultTiming())
	if err != nil {
		panic(err)
	}
	return fl
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", Greedy, true},
		{"greedy", Greedy, true},
		{"costbenefit", CostBenefit, true},
		{"costage", CostAgeTimes, true},
		{"gready", Greedy, false},
	} {
		k, ok := ParseKind(tc.in)
		if ok != tc.ok || (ok && k != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v", tc.in, k, ok)
		}
	}
	if len(Kinds()) != 3 {
		t.Fatalf("Kinds() = %v", Kinds())
	}
	for _, k := range Kinds() {
		p, err := NewPolicy(k)
		if err != nil || p.Kind() != k {
			t.Fatalf("NewPolicy(%v): %v / %v", k, p, err)
		}
	}
	if _, err := NewPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestGreedyScoreOrdersByValid(t *testing.T) {
	p := MustPolicy(Greedy)
	few := Candidate{Valid: 2, Invalid: 6, Capacity: 8}
	many := Candidate{Valid: 6, Invalid: 2, Capacity: 8}
	if p.Score(few) <= p.Score(many) {
		t.Fatal("greedy did not prefer the emptier candidate")
	}
	// Age and wear must not matter to greedy.
	aged := few
	aged.Age, aged.Erases = 1<<40, 1000
	if p.Score(aged) != p.Score(few) {
		t.Fatal("greedy is not age/wear-blind")
	}
}

func TestCostBenefitPrefersColdCandidates(t *testing.T) {
	p := MustPolicy(CostBenefit)
	hot := Candidate{Valid: 4, Invalid: 4, Capacity: 8, Age: 10}
	cold := Candidate{Valid: 4, Invalid: 4, Capacity: 8, Age: 10 * nand.Second}
	if p.Score(cold) <= p.Score(hot) {
		t.Fatal("cost-benefit did not prefer the colder candidate")
	}
	empty := Candidate{Valid: 0, Invalid: 8, Capacity: 8}
	if !(p.Score(empty) > p.Score(cold)) {
		t.Fatal("an all-invalid candidate must dominate")
	}
}

func TestCostAgeTimesAvoidsWornCandidates(t *testing.T) {
	p := MustPolicy(CostAgeTimes)
	fresh := Candidate{Valid: 4, Invalid: 4, Capacity: 8, Age: nand.Second, Erases: 1}
	worn := Candidate{Valid: 4, Invalid: 4, Capacity: 8, Age: nand.Second, Erases: 100}
	if p.Score(worn) >= p.Score(fresh) {
		t.Fatal("cost-age-times did not penalize wear")
	}
}

// fakeAlloc tracks a flat free pool over the test flash and can be wedged.
// Like the real block manager it reports active-block transitions to the
// controller (onActive), so the incremental victim index stays exact.
type fakeAlloc struct {
	fl       *nand.Flash
	active   int // single active block for relocation targets
	free     []int
	wedged   bool
	onActive func(blockID int)
}

func (a *fakeAlloc) setActive(blk int) {
	old := a.active
	a.active = blk
	if a.onActive != nil {
		if old >= 0 {
			a.onActive(old)
		}
		if blk >= 0 {
			a.onActive(blk)
		}
	}
}

func (a *fakeAlloc) take(trans bool) (nand.PPN, bool) {
	if a.wedged {
		return nand.InvalidPPN, false
	}
	if a.active >= 0 && a.fl.BlockFreePages(a.active) > 0 {
		base := a.fl.Codec().Encode(a.fl.Codec().BlockAddr(a.active))
		return base + nand.PPN(a.fl.BlockWritePtr(a.active)), true
	}
	if len(a.free) == 0 {
		return nand.InvalidPPN, false
	}
	next := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.setActive(next)
	return a.take(trans)
}

func (a *fakeAlloc) AllocGCPage(trans bool) (nand.PPN, bool) { return a.take(trans) }
func (a *fakeAlloc) AllocGCPageOnChip(_ int, trans bool) (nand.PPN, bool) {
	return a.take(trans)
}
func (a *fakeAlloc) Release(b int) { a.free = append(a.free, b) }
func (a *fakeAlloc) Retire(b int) {
	if a.active == b {
		a.setActive(-1)
	}
}
func (a *fakeAlloc) FreeBlocks() int     { return len(a.free) }
func (a *fakeAlloc) IsActive(b int) bool { return b == a.active }

// fakeHost records relocations; L2P-free because the test drives raw OOBs.
type fakeHost struct {
	relocated int
	finalized int
	sorted    bool
}

func (h *fakeHost) PageRelocated(nand.OOB, nand.PPN, nand.PPN) { h.relocated++ }
func (h *fakeHost) Finalize(moved []int64, t nand.Time) nand.Time {
	h.finalized++
	return t
}
func (h *fakeHost) SortByLPN() bool { return h.sorted }

// fillBlock programs every page of blk with ascending keys.
func fillBlock(t *testing.T, fl *nand.Flash, blk int, keyBase int64) {
	t.Helper()
	base := fl.Codec().Encode(fl.Codec().BlockAddr(blk))
	for i := 0; i < fl.Geometry().PagesPerBlock; i++ {
		if _, err := fl.Program(base+nand.PPN(i), nand.OOB{Key: keyBase + int64(i)}, 0, nand.OpHostData); err != nil {
			t.Fatal(err)
		}
	}
}

func invalidate(t *testing.T, fl *nand.Flash, blk, n int) {
	t.Helper()
	base := fl.Codec().Encode(fl.Codec().BlockAddr(blk))
	for i := 0; i < n; i++ {
		if err := fl.Invalidate(base + nand.PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func newTestController(fl *nand.Flash, a *fakeAlloc, h *fakeHost, k Kind) *Controller {
	c := NewController(fl, a, h, stats.NewCollector(), MustPolicy(k), 2)
	a.onActive = c.ActiveChanged
	return c
}

// TestVictimTieBreaksToLowestID pins the deterministic tie-break: among
// equally scored candidates the lowest block id wins, under every policy.
func TestVictimTieBreaksToLowestID(t *testing.T) {
	for _, k := range Kinds() {
		fl := testFlash(t)
		a := &fakeAlloc{fl: fl, active: -1, free: []int{15}}
		c := newTestController(fl, a, &fakeHost{}, k)
		// Blocks 3 and 7: identical fill, identical invalidation, written
		// at identical times — indistinguishable to every policy.
		fillBlock(t, fl, 3, 0)
		fillBlock(t, fl, 7, 100)
		invalidate(t, fl, 3, 4)
		invalidate(t, fl, 7, 4)
		if v := c.Victim(nand.Second); v != 3 {
			t.Fatalf("%v: victim = %d, want lowest-id 3", k, v)
		}
	}
}

// TestVictimPolicyDivergence sets up a state where the three policies
// legitimately disagree: a worn, old, mostly-invalid block versus a fresh
// block with slightly fewer valid pages.
func TestVictimPolicyDivergence(t *testing.T) {
	build := func() (*nand.Flash, *fakeAlloc) {
		fl := testFlash(t)
		a := &fakeAlloc{fl: fl, active: -1, free: []int{15}}
		// Block 2: heavily worn (erase cycles), 3 valid of 8.
		fillBlock(t, fl, 2, 0)
		invalidate(t, fl, 2, 8)
		for i := 0; i < 50; i++ {
			if _, err := fl.Erase(2, 0); err != nil {
				t.Fatal(err)
			}
			fillBlock(t, fl, 2, 0)
			invalidate(t, fl, 2, 8)
		}
		if _, err := fl.Erase(2, 0); err != nil {
			t.Fatal(err)
		}
		fillBlock(t, fl, 2, 0)
		invalidate(t, fl, 2, 5)
		// Block 5: fresh, 2 valid of 8 (greedy's pick).
		fillBlock(t, fl, 5, 100)
		invalidate(t, fl, 5, 6)
		return fl, a
	}
	fl, a := build()
	g := newTestController(fl, a, &fakeHost{}, Greedy)
	if v := g.Victim(2 * nand.Second); v != 5 {
		t.Fatalf("greedy victim = %d, want 5 (fewest valid)", v)
	}
	fl2, a2 := build()
	cat := newTestController(fl2, a2, &fakeHost{}, CostAgeTimes)
	if v := cat.Victim(2 * nand.Second); v != 5 {
		t.Fatalf("cost-age-times victim = %d, want 5 (block 2 is worn)", v)
	}
	// Make block 5 the worn one instead: cost-age-times flips, greedy
	// does not.
	fl3, a3 := build()
	for i := 0; i < 80; i++ {
		base := fl3.Codec().Encode(fl3.Codec().BlockAddr(5))
		for p := 0; p < 8; p++ {
			st := fl3.State(base + nand.PPN(p))
			if st == nand.PageValid {
				if err := fl3.Invalidate(base + nand.PPN(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := fl3.Erase(5, 0); err != nil {
			t.Fatal(err)
		}
		fillBlock(t, fl3, 5, 100)
		invalidate(t, fl3, 5, 6)
	}
	g3 := newTestController(fl3, a3, &fakeHost{}, Greedy)
	if v := g3.Victim(2 * nand.Second); v != 5 {
		t.Fatalf("greedy must stay on 5, got %d", v)
	}
	cat3 := newTestController(fl3, a3, &fakeHost{}, CostAgeTimes)
	if v := cat3.Victim(2 * nand.Second); v != 2 {
		t.Fatalf("cost-age-times victim = %d, want 2 (5 is now worn)", v)
	}
}

// TestCollectOnceRelocatesAndReleases runs one full collection through the
// fakes and checks the mechanics: valid pages move, the victim erases, the
// pool grows, the host hooks fire, stats accumulate.
func TestCollectOnceRelocatesAndReleases(t *testing.T) {
	fl := testFlash(t)
	a := &fakeAlloc{fl: fl, active: -1, free: []int{15}}
	h := &fakeHost{}
	c := newTestController(fl, a, h, Greedy)
	fillBlock(t, fl, 0, 0)
	invalidate(t, fl, 0, 5) // 3 valid remain
	done, ok := c.CollectOnce(0)
	if !ok || done <= 0 {
		t.Fatal("collection did not run")
	}
	if h.relocated != 3 || h.finalized != 1 {
		t.Fatalf("relocated=%d finalized=%d", h.relocated, h.finalized)
	}
	if fl.BlockWritePtr(0) != 0 || fl.BlockErases(0) != 1 {
		t.Fatal("victim not erased")
	}
	st := c.Stats()
	if st.Foreground != 1 || st.PagesMoved != 3 || st.Aborted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCollectOnceGracefulOnNoSpace is the regression for the old gcOnce
// panic: a wedged allocator must surface ErrNoSpace, not crash, and the
// victim must keep its remaining valid pages.
func TestCollectOnceGracefulOnNoSpace(t *testing.T) {
	fl := testFlash(t)
	a := &fakeAlloc{fl: fl, active: -1, wedged: true}
	h := &fakeHost{}
	c := newTestController(fl, a, h, Greedy)
	fillBlock(t, fl, 0, 0)
	invalidate(t, fl, 0, 5)
	_, ok := c.CollectOnce(0)
	if ok {
		t.Fatal("wedged collection reported success")
	}
	if !errors.Is(c.LastErr(), ErrNoSpace) {
		t.Fatalf("LastErr = %v, want ErrNoSpace", c.LastErr())
	}
	if c.Stats().Aborted != 1 {
		t.Fatalf("Aborted = %d", c.Stats().Aborted)
	}
	if fl.BlockValid(0) != 3 {
		t.Fatal("aborted collection lost valid pages")
	}
	if fl.BlockErases(0) != 0 {
		t.Fatal("aborted collection erased the victim")
	}
}

// TestForegroundRespectsLowWater: collection stops once the pool exceeds
// the watermark and never runs with a healthy pool.
func TestForegroundRespectsLowWater(t *testing.T) {
	fl := testFlash(t)
	a := &fakeAlloc{fl: fl, active: -1, free: []int{12, 13, 14, 15}}
	c := newTestController(fl, a, &fakeHost{}, Greedy)
	fillBlock(t, fl, 0, 0)
	invalidate(t, fl, 0, 5)
	// Pool (4) above lowWater (2): no collection.
	c.Foreground(0)
	if c.Stats().Foreground != 0 {
		t.Fatal("foreground GC ran above the watermark")
	}
	a.free = a.free[:2] // drop to the watermark
	c.Foreground(0)
	if c.Stats().Foreground != 1 {
		t.Fatalf("foreground collections = %d, want 1", c.Stats().Foreground)
	}
}

// TestBackgroundStopsAtDeadlineAndWater: background collection launches
// only inside the idle gap and only while below the background watermark.
func TestBackgroundStopsAtDeadlineAndWater(t *testing.T) {
	fl := testFlash(t)
	a := &fakeAlloc{fl: fl, active: -1, free: []int{13, 14, 15}}
	c := newTestController(fl, a, &fakeHost{}, Greedy) // background watermark 2×lowWater = 4
	for blk := 0; blk < 4; blk++ {
		fillBlock(t, fl, blk, int64(100*blk))
		invalidate(t, fl, blk, 6)
	}
	// Zero-length gap: nothing may launch.
	c.Background(5, 5)
	if c.Stats().Background != 0 {
		t.Fatal("background GC launched in an empty gap")
	}
	// Wide gap: collect until the pool reaches the watermark (4). The first
	// collection opens a relocation target (pool 3 → 2 → release → 3), the
	// second reuses it (3 → release → 4): two collections, then the
	// watermark holds.
	c.Background(0, 1<<40)
	if got := c.Stats().Background; got != 2 {
		t.Fatalf("background collections = %d, want 2", got)
	}
	if a.FreeBlocks() < 4 {
		t.Fatalf("pool = %d, want >= the background watermark 4", a.FreeBlocks())
	}
	c.Background(0, 1<<40)
	if got := c.Stats().Background; got != 2 {
		t.Fatalf("background GC ran at the watermark (%d collections)", got)
	}
}
