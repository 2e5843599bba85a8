package core

import (
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
)

// checkInvariants asserts the structural invariants of the group allocator
// and the model layer after any operation sequence.
func checkInvariants(t *testing.T, f *LearnedFTL) {
	t.Helper()
	g := f.Cfg.Geometry

	// (1) Row accounting: every row is translation, free, or owned by
	// exactly one group, and the partitions are disjoint and complete.
	owner := make([]int, g.BlocksPerUnit)
	for r := range owner {
		owner[r] = -99
	}
	for r := 0; r < f.transRows; r++ {
		owner[r] = -2
	}
	for _, r := range f.freeRows {
		if owner[r] != -99 {
			t.Fatalf("row %d double-classified (free)", r)
		}
		owner[r] = -1
	}
	for gid := range f.groups {
		for _, r := range f.groups[gid].rows {
			if owner[r] != -99 {
				t.Fatalf("row %d double-classified (group %d)", r, gid)
			}
			owner[r] = gid
		}
	}
	for r, o := range owner {
		if o == -99 {
			t.Fatalf("row %d unaccounted", r)
		}
		if o != f.rowOwner[r] {
			t.Fatalf("row %d: rowOwner says %d, structure says %d", r, f.rowOwner[r], o)
		}
	}

	// (2) rowInvalid matches the flash array per data row.
	for r := f.transRows; r < g.BlocksPerUnit; r++ {
		base := f.rowVPPNBase(r)
		inv := 0
		for s := 0; s < f.sbPages; s++ {
			if f.Fl.State(f.Codec.ToPhysical(nand.VPPN(base+int64(s)))) == nand.PageInvalid {
				inv++
			}
		}
		if inv != f.rowInvalid[r] {
			t.Fatalf("row %d: rowInvalid=%d, flash says %d", r, f.rowInvalid[r], inv)
		}
	}

	// (3) L2P ↔ flash coherence.
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		ppn := f.L2P.Get(lpn)
		if ppn == nand.InvalidPPN {
			continue
		}
		if f.Fl.State(ppn) != nand.PageValid {
			t.Fatalf("lpn %d maps to %v page", lpn, f.Fl.State(ppn))
		}
		if oob := f.Fl.PageOOB(ppn); oob.Trans || oob.Key != lpn {
			t.Fatalf("lpn %d OOB mismatch: %+v", lpn, oob)
		}
	}

	// (4) Model bitmap contract: every predictable offset predicts truth.
	for tpn, m := range f.models {
		lo, _ := f.Cfg.TPRange(tpn)
		for off := 0; off < f.Cfg.EntriesPerTP; off++ {
			v, ok := m.Predict(off)
			if !ok {
				continue
			}
			if got := f.fromVirtual(v); got != f.L2P.Get(lo+int64(off)) {
				t.Fatalf("tpn %d off %d: model %d vs truth %d", tpn, off, got, f.L2P.Get(lo+int64(off)))
			}
		}
	}

	// (5) CMT entries agree with L2P.
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if e, ok := f.CMT.Peek(lpn); ok && e.PPN != f.L2P.Get(lpn) {
			t.Fatalf("lpn %d: CMT %d vs L2P %d", lpn, e.PPN, f.L2P.Get(lpn))
		}
	}
}

// TestInvariantsUnderRandomOps drives random write/read/group-GC sequences
// and revalidates every structural invariant at checkpoints.
func TestInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		lp := f.LogicalPages()
		now := nand.Time(0)
		for step := 0; step < 12; step++ {
			for op := 0; op < 400; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // random write burst
					n := 1 + rng.Intn(16)
					lpn := rng.Int63n(lp - int64(n))
					now = f.WritePages(lpn, n, now)
				case 5, 6, 7, 8: // read
					now = f.ReadPages(rng.Int63n(lp), 1, now)
				case 9: // occasional collection of a random group
					now = collectGroup(f, rng.Intn(f.ngroups), now)
				}
			}
			checkInvariants(t, f)
		}
	}
}

// TestInvariantsAfterHeavyAging does a long randwrite run and a final deep
// check (more writes than TestInvariantsUnderRandomOps, fewer checkpoints).
func TestInvariantsAfterHeavyAging(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	lp := f.LogicalPages()
	now := nand.Time(0)
	for lpn := int64(0); lpn < lp; lpn += 16 {
		now = f.WritePages(lpn, 16, now)
	}
	for i := int64(0); i < 8*lp; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	if f.Col.GCCount == 0 {
		t.Fatal("no GC in 8x overwrite")
	}
	checkInvariants(t, f)
}
