package core

import (
	"math/rand"
	"testing"

	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
)

// overwrite drives n random single-page writes.
func overwrite(f *LearnedFTL, n int64, seed int64, now nand.Time) nand.Time {
	rng := rand.New(rand.NewSource(seed))
	lp := f.LogicalPages()
	for i := int64(0); i < n; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	return now
}

// fill writes the whole logical space once.
func fill(f *LearnedFTL, now nand.Time) nand.Time {
	for lpn := int64(0); lpn < f.LogicalPages(); lpn += 16 {
		now = f.WritePages(lpn, 16, now)
	}
	return now
}

// TestVictimGroupDefaultIsPaperRule: with the default (greedy) policy the
// group victim must be exactly mostInvalidGroup's pick — the literal
// §III-D rule — so the paper reproduction is untouched by the policy
// plumbing.
func TestVictimGroupDefaultIsPaperRule(t *testing.T) {
	f := newFTL(t)
	now := fill(f, 0)
	overwrite(f, f.LogicalPages(), 2, now)
	if f.gcPol != nil {
		t.Fatal("default config installed a non-greedy group policy")
	}
	wantG, wantI := f.mostInvalidGroup()
	gotG, gotI := f.victimGroup(nand.Second)
	if gotG != wantG || gotI != wantI {
		t.Fatalf("victimGroup = (%d,%d), mostInvalidGroup = (%d,%d)", gotG, gotI, wantG, wantI)
	}
}

// TestVictimGroupPolicyPlumbing: a non-default policy must install, score
// every group, and return the victim's own invalid count (the callers'
// reclaim-gain threshold input).
func TestVictimGroupPolicyPlumbing(t *testing.T) {
	for _, k := range []gc.Kind{gc.CostBenefit, gc.CostAgeTimes} {
		cfg := testConfig()
		cfg.GCPolicy = k
		f, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if f.gcPol == nil || f.gcPol.Kind() != k {
			t.Fatalf("%v: policy not installed", k)
		}
		now := fill(f, 0)
		overwrite(f, f.LogicalPages(), 2, now)
		gid, inv := f.victimGroup(nand.Second)
		if gid < 0 || gid >= f.ngroups {
			t.Fatalf("%v: victim group %d out of range", k, gid)
		}
		if got := f.groupInvalid(gid); got != inv {
			t.Fatalf("%v: reported invalid %d != group's %d", k, inv, got)
		}
	}
}

// TestVictimGroupSkipsZeroGain (regression): cost-benefit scores an empty
// group (utilization 0) at +Inf, so without the zero-gain skip a freshly
// emptied group would be the permanent victim with nothing to reclaim,
// starving collection everywhere else.
func TestVictimGroupSkipsZeroGain(t *testing.T) {
	cfg := testConfig()
	cfg.GCPolicy = gc.CostBenefit
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := fill(f, 0)
	// Empty group 0 entirely: trim its span, then collect it.
	now = f.TrimPages(0, f.span, now)
	now = f.gcGroup(0, now)
	if inv := f.groupInvalid(0); inv != 0 {
		t.Fatalf("group 0 not empty after trim+GC: %d invalid", inv)
	}
	// Create reclaimable pages in group 1 by overwriting its span.
	span := int64(f.span)
	for i := int64(0); i < span; i += 16 {
		now = f.WritePages(span+i, 16, now)
	}
	gid, inv := f.victimGroup(now)
	if inv == 0 {
		t.Fatalf("victimGroup chose zero-gain group %d over reclaimable space", gid)
	}
}

// TestCoreBackgroundGC: with at least one superblock row's worth of
// reclaimable pages, an idle gap must trigger group collection, grow the
// free-row pool, and record the collections as background.
func TestCoreBackgroundGC(t *testing.T) {
	f := newFTL(t)
	now := fill(f, 0)
	now = overwrite(f, 2*f.LogicalPages(), 3, now)
	_, inv := f.victimGroup(now)
	if inv < f.sbPages {
		t.Skipf("overwrite left only %d invalid pages (< row of %d)", inv, f.sbPages)
	}
	rowsBefore := len(f.freeRows)
	gcBefore := f.Col.GCCount
	done := f.BackgroundGC(now, now+1<<40)
	if done <= now {
		t.Fatal("background GC consumed no virtual time")
	}
	if f.Col.BGGCCount == 0 || f.Col.GCCount == gcBefore {
		t.Fatal("no background group collection recorded")
	}
	if len(f.freeRows) < rowsBefore {
		t.Fatalf("free rows shrank: %d -> %d", rowsBefore, len(f.freeRows))
	}
	// At the deadline boundary nothing may launch.
	gcAfter := f.Col.GCCount
	f.BackgroundGC(done, done)
	if f.Col.GCCount != gcAfter {
		t.Fatal("background GC launched in an empty gap")
	}
}

// TestCoreTrimFreesGroupSpace: trimming a whole group's span must turn its
// pages invalid so the next group GC reclaims them without relocation.
func TestCoreTrimFreesGroupSpace(t *testing.T) {
	f := newFTL(t)
	now := fill(f, 0)
	span := int64(f.span)
	now = f.TrimPages(0, int(span), now)
	for l := int64(0); l < span; l++ {
		if f.Mapped(l) {
			t.Fatalf("lpn %d still mapped after trim", l)
		}
	}
	if inv := f.groupInvalid(0); inv < f.span {
		t.Fatalf("group 0 shows %d invalid pages, want >= %d", inv, f.span)
	}
	if f.Col.HostTrims != 1 || f.Col.HostTrimmedLive != span {
		t.Fatalf("trim accounting: %d trims, %d live", f.Col.HostTrims, f.Col.HostTrimmedLive)
	}
	// The trimmed space is rewritable and reads as unwritten meanwhile.
	if done := f.ReadPages(0, 64, now); done != now {
		t.Fatal("read of trimmed space touched flash")
	}
	f.WritePages(0, 64, now)
	for l := int64(0); l < 64; l++ {
		if !f.Mapped(l) {
			t.Fatalf("lpn %d unmapped after rewrite", l)
		}
	}
}

// TestGroupCandidateAgeIgnoresPreviousBlockLife is the regression test for
// the stale-lastMod bug: groupCandidate takes the max program recency over
// every block of a group's rows, including blocks not yet (re)programmed.
// Before the fix, nand.Flash.Erase left lastMod from the block's previous
// life, so a group that took a freshly erased row looked recently written
// and age-weighted policies (costbenefit, costage) mis-scored it.
func TestGroupCandidateAgeIgnoresPreviousBlockLife(t *testing.T) {
	f := newFTL(t)
	geo := f.Fl.Geometry()

	// Give block (unit 0, row r) a previous life ending late: program every
	// page at a large virtual time, invalidate, erase.
	r := f.transRows + 2 // a data row, left free by the allocator so far
	blk := 0*geo.BlocksPerUnit + r
	staleTime := 5 * nand.Second
	now := staleTime
	base := nand.PPN(int64(blk) * int64(geo.PagesPerBlock))
	for i := 0; i < geo.PagesPerBlock; i++ {
		done, err := f.Fl.Program(base+nand.PPN(i), nand.OOB{Key: int64(i)}, now, nand.OpHostData)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for i := 0; i < geo.PagesPerBlock; i++ {
		if err := f.Fl.Invalidate(base + nand.PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Fl.Erase(blk, now); err != nil {
		t.Fatal(err)
	}

	// Hand the erased row to group 0 with nothing programmed into it yet.
	f.rowOwner[r] = 0
	f.groups[0].rows = []int{r}
	f.groups[0].wp = 0

	probe := 20 * nand.Second
	c := f.groupCandidate(0, probe)
	if c.Age != probe {
		t.Fatalf("candidate age = %d, want the full %d: the erased block's previous life leaked into scoring", c.Age, probe)
	}
}
