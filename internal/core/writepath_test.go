package core

import (
	"math/rand"
	"reflect"
	"testing"

	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
)

// TestSteadyStateWritesZeroAlloc pins LearnedFTL's write path — allocation,
// borrowing, the donor queue, group GC with its sorting, training and
// evacuation, translation write-back — at zero allocations on a full
// device. The whole block of overwrites is one AllocsPerRun run, because
// AllocsPerRun rounds down: a queue that regrew now and then over 50 000
// writes would read as 0 per write.
func TestSteadyStateWritesZeroAlloc(t *testing.T) {
	f := newFTL(t)
	now := fill(f, 0)
	lp := f.Cfg.LogicalPages()
	rng := rand.New(rand.NewSource(1))

	const writes = 50_000
	thr := f.encroachThreshold()
	before := make([]int, len(f.groups))
	var collections int64
	crossings := 0
	block := func() {
		collections, crossings = f.Col.GCCount, 0
		for i := 0; i < writes; i++ {
			for g := range f.groups {
				before[g] = f.groups[g].encroach
			}
			// A hot eighth of the space takes three writes in four, so its
			// groups outgrow their rows and borrow from the cold ones.
			lpn := rng.Int63n(lp)
			if rng.Intn(4) > 0 {
				lpn = rng.Int63n(lp / 8)
			}
			now = f.WritePages(lpn, 1, now)
			for g := range f.groups {
				if before[g] < thr && f.groups[g].encroach >= thr {
					crossings++
				}
			}
		}
		collections = f.Col.GCCount - collections
	}
	if a := testing.AllocsPerRun(1, block); a != 0 { // a warm-up block, then the measured one
		t.Fatalf("%d overwrites on a full device allocated %.0f times", writes, a)
	}
	t.Logf("measured block: %d group collections, %d donor-threshold crossings", collections, crossings)
	if collections < 10 || crossings < 1 {
		t.Fatalf("measured block ran %d group collections and %d donor-threshold crossings, want >= 10 and >= 1", collections, crossings)
	}
}

// trainedFromL2P returns the model a GTD entry gets when trained from the
// L2P, one toVirtual per mapped LPN — how relocateGroup trained before it
// took the locations it had just assigned — and false when the entry maps
// nothing (relocateGroup then leaves its model as it was).
func (f *LearnedFTL) trainedFromL2P(tpn int) (learned.ModelState, bool) {
	lo, hi := f.Cfg.TPRange(tpn)
	vppns := make([]int64, f.Cfg.EntriesPerTP)
	baseV := int64(-1)
	for i := range vppns {
		vppns[i] = -1
	}
	for l := lo; l < hi; l++ {
		if p := f.L2P.Get(l); p != nand.InvalidPPN {
			v := f.toVirtual(p)
			vppns[l-lo] = v
			if baseV < 0 || v < baseV {
				baseV = v
			}
		}
	}
	if baseV < 0 {
		return learned.ModelState{}, false
	}
	m := learned.NewInPlaceModel(f.Cfg.EntriesPerTP, f.Cfg.MaxPieces)
	m.TrainFull(baseV, vppns)
	return m.ExportState(), true
}

// TestGCTrainingMatchesL2PTraining: after every group collection, each model
// of the collected group equals one trained from the L2P, with VPPNs and
// under the raw-PPN ablation. Trims leave holes in the groups, so entries
// fit several pieces, some more than the array holds, and some map nothing.
func TestGCTrainingMatchesL2PTraining(t *testing.T) {
	for _, disableVPPN := range []bool{false, true} {
		cfg := testConfig()
		cfg.Learned.DisableVPPN = disableVPPN
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		lp := f.Cfg.LogicalPages()
		now := fill(f, 0)
		checked, empty := 0, 0
		for step := 0; step < 4000; step++ {
			switch k := rng.Intn(100); {
			case k < 80:
				now = f.WritePages(rng.Int63n(lp), 1, now)
			case k < 88:
				n := 1 + rng.Intn(24)
				now = f.WritePages(rng.Int63n(lp-int64(n)), n, now)
			case k < 91:
				n := 1 + rng.Intn(f.Cfg.EntriesPerTP)
				now = f.TrimPages(rng.Int63n(lp-int64(n)), n, now)
			case k < 94: // a whole entry, so that some collections train none of it
				lo, hi := f.Cfg.TPRange(rng.Intn(len(f.models)))
				now = f.TrimPages(lo, int(hi-lo), now)
			default:
				gid, _ := f.victimGroup(now)
				if rng.Intn(2) == 0 {
					gid = rng.Intn(f.ngroups)
				}
				loTPN := gid * f.Cfg.GroupEntries
				prior := make([]learned.ModelState, f.Cfg.GroupEntries)
				for e := range prior {
					prior[e] = f.models[loTPN+e].ExportState()
				}
				now = f.gcGroup(gid, now)
				for e := range prior {
					tpn := loTPN + e
					want, ok := f.trainedFromL2P(tpn)
					if !ok {
						want = prior[e]
						empty++
					}
					if got := f.models[tpn].ExportState(); !reflect.DeepEqual(got, want) {
						t.Fatalf("DisableVPPN=%v step %d: group %d entry %d model\n got %+v\nwant %+v", disableVPPN, step, gid, tpn, got, want)
					}
					checked++
				}
			}
		}
		t.Logf("DisableVPPN=%v: %d models checked, %d on entries that map nothing", disableVPPN, checked, empty)
		if checked == 0 || empty == 0 {
			t.Fatalf("DisableVPPN=%v: %d models checked, %d of them on entries that map nothing: want both", disableVPPN, checked, empty)
		}
		checkInvariants(t, f)
	}
}
