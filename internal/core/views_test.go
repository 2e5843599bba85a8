package core

import (
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// The three functions below are the linear scans the flat per-group views
// (grpInvalid, grpFree, reclaimable) replaced, moved here with their bodies unchanged:
// the references the views are pinned against.

// groupInvalid returns the invalid data-page count across a group's rows.
func (f *LearnedFTL) groupInvalid(gid int) int {
	inv := 0
	for _, r := range f.groups[gid].rows {
		inv += f.rowInvalid[r]
	}
	return inv
}

// mostInvalidGroupLinearScan is mostInvalidGroup over groupInvalid.
func (f *LearnedFTL) mostInvalidGroupLinearScan() (int, int) {
	victim, best := 0, -1
	for id := range f.groups {
		if inv := f.groupInvalid(id); inv > best {
			victim, best = id, inv
		}
	}
	return victim, best
}

// donorLinearScan is the donor choice of borrowSlot over groups[id].wp.
func (f *LearnedFTL) donorLinearScan(gid int) int {
	donor, bestFree := -1, 0
	for id := range f.groups {
		if id == gid {
			continue
		}
		g := &f.groups[id]
		if len(g.rows) == 0 || g.wp >= f.sbPages {
			continue
		}
		if free := f.sbPages - g.wp; free > bestFree {
			donor, bestFree = id, free
		}
	}
	return donor
}

// checkViews asserts that the flat views equal a recount of groups and
// rowInvalid, and that victim and donor are the linear scans' picks.
func checkViews(t *testing.T, f *LearnedFTL, after string) {
	t.Helper()
	listed := make([]bool, len(f.rowListed))
	reclaimable := 0
	for gid := range f.groups {
		g := &f.groups[gid]
		if f.groupInvalid(gid) >= f.sbPages {
			reclaimable++
		}
		free := 0
		if len(g.rows) > 0 {
			free = f.sbPages - g.wp
		}
		if got, want := int(f.grpInvalid[gid]), f.groupInvalid(gid); got != want {
			t.Fatalf("after %s: group %d grpInvalid = %d, its rows hold %d", after, gid, got, want)
		}
		if got := int(f.grpFree[gid]); got != free {
			t.Fatalf("after %s: group %d grpFree = %d, active row has %d", after, gid, got, free)
		}
		for _, r := range g.rows {
			listed[r] = true
		}
	}
	for r := range listed {
		if f.rowListed[r] != listed[r] {
			t.Fatalf("after %s: row %d rowListed = %v, want %v", after, r, f.rowListed[r], listed[r])
		}
	}
	if f.reclaimable != reclaimable {
		t.Fatalf("after %s: reclaimable = %d, %d groups hold a row's worth of invalid pages", after, f.reclaimable, reclaimable)
	}
	gotV, gotI := f.mostInvalidGroup()
	if wantV, wantI := f.mostInvalidGroupLinearScan(); gotV != wantV || gotI != wantI {
		t.Fatalf("after %s: victim (%d, %d invalid), linear scan (%d, %d)", after, gotV, gotI, wantV, wantI)
	}
	for gid := range f.groups {
		if got, want := f.donorFor(gid), f.donorLinearScan(gid); got != want {
			t.Fatalf("after %s: donor for group %d = %d, linear scan %d", after, gid, got, want)
		}
	}
	if v := f.AllocInvariants(); after == "crash+recover" && len(v) > 0 {
		t.Fatalf("after %s: %v", after, v)
	}
}

// TestGroupViewsMatchRecount drives every operation that changes rows,
// write positions or invalid counts — host writes (with the borrowing, the
// pending-donor and the reserve collections they trigger), trims, forced,
// background and random-group GC, snapshot→restore and crash→recover — and
// checks the views after every step.
func TestGroupViewsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f := newFTL(t)
		rng := rand.New(rand.NewSource(seed))
		lp := f.LogicalPages()
		now := fill(f, 0)
		checkViews(t, f, "fill")
		gcs := map[string]int64{}
		borrowed := false
		for step := 0; step < 6000; step++ {
			op := "write"
			before := f.Col.GCCount
			switch k := rng.Intn(100); {
			case k < 70:
				// Skewed single-page overwrites: a hot eighth of the space
				// fills its groups' rows and borrows from the cold ones.
				lpn := rng.Int63n(lp)
				if rng.Intn(4) > 0 {
					lpn = rng.Int63n(lp / 8)
				}
				now = f.WritePages(lpn, 1, now)
			case k < 80:
				n := 1 + rng.Intn(24)
				now = f.WritePages(rng.Int63n(lp-int64(n)), n, now)
			case k < 88:
				op = "trim" // up to more than a group's span: invalid pages no write collected
				n := 1 + rng.Intn(2*f.span)
				now = f.TrimPages(rng.Int63n(lp-int64(n)), n, now)
			case k < 89:
				op = "forced GC"
				victim, _ := f.victimGroup(now)
				now = f.gcGroup(victim, now)
			case k < 95:
				op = "background GC"
				now = f.BackgroundGC(now, now+nand.Second)
			case k < 96:
				op = "random-group GC"
				now = collectGroup(f, rng.Intn(f.ngroups), now)
			case k < 98:
				op = "snapshot+restore"
				e := persist.NewEncoder()
				f.SaveState(e)
				g := newFTL(t)
				if err := g.LoadState(persist.NewDecoder(e.Data())); err != nil {
					t.Fatal(err)
				}
				f = g
			default:
				op = "crash+recover"
				now = f.RecoverFromCrash(now)
			}
			if op != "snapshot+restore" { // the restored device counts from zero
				gcs[op] += f.Col.GCCount - before
			}
			for i := range f.groups {
				borrowed = borrowed || f.groups[i].encroach > 0
			}
			checkViews(t, f, op)
		}
		if !borrowed {
			t.Errorf("seed %d: no write borrowed a slot", seed)
		}
		for _, op := range []string{"write", "forced GC", "background GC", "random-group GC"} {
			if gcs[op] == 0 {
				t.Errorf("seed %d: no group collection ran under %q", seed, op)
			}
		}
		checkInvariants(t, f)
	}
}

// TestLoadStateRejectsRowOutOfRange: the views index rowInvalid by the
// rows a snapshot lists, so a row past the geometry is an error from
// LoadState, not an index panic.
func TestLoadStateRejectsRowOutOfRange(t *testing.T) {
	src := newFTL(t)
	fill(src, 0)
	src.groups[1].rows = append(src.groups[1].rows, len(src.rowOwner))
	e := persist.NewEncoder()
	src.SaveState(e)
	if err := newFTL(t).LoadState(persist.NewDecoder(e.Data())); err == nil {
		t.Fatal("LoadState accepted a group row past the last row")
	}
}
