package core

import (
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
)

// ageRandomly maps the whole space then degrades model accuracy with 4KB
// random overwrites, staying below the GC trigger.
func ageRandomly(t *testing.T, f *LearnedFTL, n int64) nand.Time {
	t.Helper()
	now := nand.Time(0)
	lp := f.LogicalPages()
	for lpn := int64(0); lpn < lp; lpn += 16 {
		now = f.WritePages(lpn, 16, now)
	}
	rng := rand.New(rand.NewSource(21))
	for i := int64(0); i < n; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	return now
}

func TestRewriteGroupRetrains(t *testing.T) {
	opt := DefaultOptions()
	opt.DisableSeqInit = true // keep accuracy degradable
	f, err := New(testConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	now := ageRandomly(t, f, f.LogicalPages()/4)
	before, mapped := f.ModelAccuracy()
	if mapped == 0 {
		t.Fatal("nothing mapped")
	}
	gcBefore := f.Col.GCCount
	done := f.RewriteGroup(0, now)
	if done <= now {
		t.Fatal("rewrite took no time")
	}
	after, _ := f.ModelAccuracy()
	if after <= before {
		t.Fatalf("rewrite did not improve accuracy: %d -> %d", before, after)
	}
	if f.Col.GCCount <= gcBefore {
		t.Fatal("rewrite not accounted as a collection")
	}
	// Data must survive the rewrite intact.
	lo := int64(0)
	hi := int64(f.span)
	for l := lo; l < hi; l++ {
		if f.Mapped(l) && f.Fl.PageOOB(f.L2P.Get(l)).Key != l {
			t.Fatalf("lpn %d corrupted by rewrite", l)
		}
	}
}

func TestRewriteColdestPicksWorstGroup(t *testing.T) {
	// Sequential init trains every group during the fill; random 4KB
	// overwrites then degrade only group 1's bitmaps.
	f, err := New(testConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	now := ageRandomly(t, f, 0)
	// Degrade only group 1's models.
	rng := rand.New(rand.NewSource(5))
	lo := int64(f.span)
	for i := 0; i < f.span/2; i++ {
		now = f.WritePages(lo+rng.Int63n(int64(f.span)), 1, now)
	}
	gid, done := f.RewriteColdest(now)
	if gid != 1 {
		t.Fatalf("RewriteColdest chose group %d, want 1", gid)
	}
	if done <= now {
		t.Fatal("rewrite took no time")
	}
	// Group 1 models should now be highly accurate.
	bits := 0
	live := 0
	for e := 0; e < f.Cfg.GroupEntries; e++ {
		tpn := f.Cfg.GroupEntries + e
		bits += f.models[tpn].AccurateBits()
		loE, hiE := f.Cfg.TPRange(tpn)
		for l := loE; l < hiE; l++ {
			if f.Mapped(l) {
				live++
			}
		}
	}
	if float64(bits) < 0.9*float64(live) {
		t.Fatalf("group 1 accuracy after rewrite: %d/%d", bits, live)
	}
}

func TestRewriteNoOpCases(t *testing.T) {
	f := newFTL(t)
	if done := f.RewriteGroup(-1, 5); done != 5 {
		t.Fatal("invalid gid not a no-op")
	}
	if done := f.RewriteGroup(0, 5); done != 5 {
		t.Fatal("empty group not a no-op")
	}
	if gid, _ := f.RewriteColdest(5); gid != -1 {
		t.Fatalf("RewriteColdest on empty device returned %d", gid)
	}
}

// TestTransPoolChurnKeepsSlack is the regression test for the translation
// pool wedge: a pool allowed to fill completely cannot host its own GC
// relocations and used to panic ("translation pool wedged during GC") the
// moment every full block still held a live translation page. updateTrans
// now collects while the pool's slack is at or below one block, so churning
// translation updates far past the pool's raw capacity must neither panic
// nor let the slack collapse, and the GTD must stay coherent throughout.
func TestTransPoolChurnKeepsSlack(t *testing.T) {
	f := newFTL(t)
	ppb := f.Cfg.Geometry.PagesPerBlock
	slots := f.tp.freeSlots()
	tpns := len(f.models)
	var now nand.Time
	for i := 0; i < 3*slots; i++ {
		now = f.updateTrans(i%tpns, false, now)
		if free := f.tp.freeSlots(); free < ppb {
			t.Fatalf("after %d churn updates the pool slack collapsed to %d slots (< one block of %d)", i+1, free, ppb)
		}
	}
	for tpn := 0; tpn < tpns; tpn++ {
		p := f.GTD.Lookup(tpn)
		if f.Fl.State(p) != nand.PageValid {
			t.Fatalf("GTD entry %d points at a %v page after pool churn", tpn, f.Fl.State(p))
		}
		if oob := f.Fl.PageOOB(p); !oob.Trans || oob.Key != int64(tpn) {
			t.Fatalf("GTD entry %d OOB diverged: %+v", tpn, oob)
		}
	}
}
