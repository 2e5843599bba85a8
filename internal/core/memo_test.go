package core

import (
	"bytes"
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/stats"
)

// freshPrediction is predict without the memo: lpn's model's Predict,
// decoded, or nand.InvalidPPN when its bitmap declines.
func freshPrediction(f *LearnedFTL, lpn int64) nand.PPN {
	tpn := f.Cfg.TPNOf(lpn)
	v, ok := f.models[tpn].Predict(int(lpn - int64(tpn)*int64(f.Cfg.EntriesPerTP)))
	if !ok {
		return nand.InvalidPPN
	}
	return f.fromVirtual(v)
}

// modelMemoCheck compares every prediction a test asks for with
// freshPrediction, and counts how the memo slot stood before it: holding
// lpn under its model's stamp (a hit), holding lpn under an older stamp
// (stale), or holding another LPN or none.
type modelMemoCheck struct {
	t                 *testing.T
	hits, stale, miss int
}

func (c *modelMemoCheck) predict(when string, f *LearnedFTL, lpn int64) {
	c.t.Helper()
	tpn := f.Cfg.TPNOf(lpn)
	switch _, stamp, ok := f.memo.Get(lpn); {
	case !ok:
		c.miss++
	case stamp == f.models[tpn].Stamp():
		c.hits++
	default:
		c.stale++
	}
	if got, want := f.predict(tpn, lpn), freshPrediction(f, lpn); got != want {
		c.t.Fatalf("%s: predict(%d) = %d, the model predicts %d", when, lpn, got, want)
	}
}

// sweep checks every LPN through whatever the memo holds, first the LPNs
// the memo holds, whose slots an ascending sweep would hand to others
// before it reached them.
func (c *modelMemoCheck) sweep(when string, f *LearnedFTL) {
	c.t.Helper()
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if _, _, ok := f.memo.Get(lpn); ok {
			c.predict(when, f, lpn)
		}
	}
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		c.predict(when, f, lpn)
	}
}

// TestModelReadsMatchFreshPrediction drives a small device through
// single-page overwrites (each clearing a bit, some installing a one-page
// piece), sequential writes (installing longer pieces), trims, group
// collections (retraining their models), a snapshot loaded back into the
// same device and a crash recovery, and at every read holds the memo-backed
// prediction, declines included, to the model's own. The memo has 32 slots
// over 1 280 LPNs, so slots change hands and models change under them: a
// memo keyed on the LPN alone, or a model change that keeps its stamp,
// answers from a stale slot here. Half the reads go to a hot range that
// fits the memo, so slots also hit, and the writes, trims and collections
// that reach it leave them stale.
func TestModelReadsMatchFreshPrediction(t *testing.T) {
	f := newFTL(t)
	c := &modelMemoCheck{t: t}
	rng := rand.New(rand.NewSource(37))
	lp := f.LogicalPages()
	hot := lp/2 + 3 // a hot range inside one group, across two models
	hotGroup := int(hot / int64(f.span))
	now := fill(f, 0)
	var snap []byte
	var trainings int64
	for round := 0; round < 6; round++ {
		for i := 0; i < 3000; i++ {
			lpn := rng.Int63n(lp - 16)
			if rng.Intn(2) == 0 {
				lpn = hot + rng.Int63n(int64(len(f.memo))-4)
			}
			n := 1 + rng.Intn(4)
			switch op := rng.Intn(40); {
			case op == 0:
				before := f.Col.ModelTrainings
				now = collectGroup(f, hotGroup, now)
				trainings += f.Col.ModelTrainings - before
			case op == 1:
				now = collectGroup(f, rng.Intn(f.ngroups), now)
			case op <= 3:
				now = f.TrimPages(lpn, n, now)
			case op <= 5:
				now = f.WritePages(lpn, 16, now)
			case op <= 25:
				for k := int64(0); k < int64(n); k++ {
					c.predict("read", f, lpn+k)
				}
				now = f.ReadPages(lpn, n, now)
			default:
				now = f.WritePages(lpn, 1, now)
			}
		}
		c.sweep("after churn", f)
		switch round % 3 {
		case 0: // keep the state to roll back to two rounds later
			e := persist.NewEncoder()
			f.SaveState(e)
			snap = e.Data()
		case 1:
			now = f.RecoverFromCrash(now)
			c.sweep("after crash recovery", f)
			now = fill(f, now) // sequential installs into the fresh models
		case 2: // roll back: the memo holds answers of later models
			if err := f.LoadState(persist.NewDecoder(snap)); err != nil {
				t.Fatal(err)
			}
			e := persist.NewEncoder()
			f.SaveState(e)
			if !bytes.Equal(e.Data(), snap) {
				t.Fatal("the snapshot did not load back into its device")
			}
			c.sweep("after rollback", f)
		}
	}
	if trainings == 0 || f.Col.ModelHits == 0 {
		t.Fatalf("%d trainings of the hot group's models, %d model hits: want both", trainings, f.Col.ModelHits)
	}
	t.Logf("%d hits, %d stale slots, %d slots of another LPN or none", c.hits, c.stale, c.miss)
	if c.hits == 0 || c.stale == 0 || c.miss == 0 {
		t.Fatal("the run did not reach hits, stale slots and slots of other LPNs")
	}
}

// TestModelReadsZeroAlloc: on a filled device a read through the models
// allocates nothing, whether its prediction is in the memo (a hot set read
// over and over) or not (LPNs across the device, each filling its slot,
// some declined and read through the demand path).
func TestModelReadsZeroAlloc(t *testing.T) {
	f := newFTL(t)
	now := fill(f, 0)
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < lp/4; i++ { // overwrites clear bits: some reads decline
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	for lpn := int64(0); lpn < lp; lpn++ {
		now = f.ReadPages(lpn, 1, now)
	}
	hot := int64(0)
	for f.CMT.Contains(hot) || freshPrediction(f, hot) == nand.InvalidPPN {
		hot++
	}
	hits := f.Col.ModelHits
	if a := testing.AllocsPerRun(1000, func() { now = f.ReadPages(hot, 1, now) }); a != 0 {
		t.Errorf("hot reads: %.1f allocations per read", a)
	}
	if f.Col.ModelHits-hits < 1000 {
		t.Errorf("%d of the hot reads hit the model, want all", f.Col.ModelHits-hits)
	}
	stride := int64(len(f.memo)) + 1 // another slot each read
	lpn, double := int64(0), f.Col.ReadClasses[stats.ReadDouble]
	if a := testing.AllocsPerRun(1000, func() {
		lpn = (lpn + stride) % lp
		now = f.ReadPages(lpn, 1, now)
	}); a != 0 {
		t.Errorf("cold reads: %.1f allocations per read", a)
	}
	if f.Col.ReadClasses[stats.ReadDouble] == double {
		t.Error("no cold read fell back to the demand path")
	}
}
