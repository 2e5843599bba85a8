package leaftl

import (
	"bytes"
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// freshPrediction is predict without the memo or the per-LPN index: the
// newest exported segment of lpn's table covering it, its prediction clamped
// to the device and decoded.
func freshPrediction(l *LeaFTL, lpn int64) nand.PPN {
	lt := l.models[l.Cfg.TPNOf(lpn)]
	if lt == nil {
		return 0
	}
	seg, ok := topDownLookup(lt.Export(), lpn)
	if !ok {
		return 0
	}
	v := min(max(seg.Predict(lpn), 0), int64(l.Cfg.Geometry.TotalPages())-1)
	return l.Codec.ToPhysical(nand.VPPN(v))
}

// memoCheck compares every prediction a test asks for with freshPrediction,
// and counts how the memo slot stood before it: holding lpn under the
// table's stamp (a hit), holding lpn under an older stamp (stale), or
// holding another LPN.
type memoCheck struct {
	t                 *testing.T
	hits, stale, miss int
}

func (c *memoCheck) predict(when string, l *LeaFTL, lpn int64) {
	c.t.Helper()
	tpn := l.Cfg.TPNOf(lpn)
	if lt := l.models[tpn]; lt != nil {
		switch _, stamp, ok := l.memo.Get(lpn); {
		case !ok:
			c.miss++
		case stamp == lt.Stamp():
			c.hits++
		default:
			c.stale++
		}
	}
	if got, want := l.predict(tpn, lpn), freshPrediction(l, lpn); got != want {
		c.t.Fatalf("%s: predict(%d) = %d, the tables predict %d", when, lpn, got, want)
	}
}

// sweep checks every LPN through whatever the memo holds.
func (c *memoCheck) sweep(when string, l *LeaFTL) {
	c.t.Helper()
	for lpn := int64(0); lpn < l.Cfg.LogicalPages(); lpn++ {
		c.predict(when, l, lpn)
	}
}

// TestMemoMatchesFreshPrediction drives a small device through overwrites
// (buffer flushes and the collections they force, each retraining a
// table), forced collections, trims and reads, a snapshot loaded back into
// the same device and a crash recovery, and at every read holds predict to
// a prediction made afresh from the tables' segments. The memo has 64
// slots over 768 LPNs, so slots change hands and tables change under them:
// a memo keyed on the LPN alone, or a table an insert does not restamp,
// answers from a stale slot here. Half the reads go to a hot range that
// fits the memo, so slots also hit, and writes to it leave them stale.
func TestMemoMatchesFreshPrediction(t *testing.T) {
	l, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := &memoCheck{t: t}
	rng := rand.New(rand.NewSource(35))
	lp := l.Cfg.LogicalPages()
	now := nand.Time(0)
	var snap []byte
	for round := 0; round < 6; round++ {
		for i := 0; i < 3000; i++ {
			lpn := rng.Int63n(lp - 4)
			if rng.Intn(2) == 0 {
				lpn = 100 + rng.Int63n(48)
			}
			n := 1 + rng.Intn(4)
			switch op := rng.Intn(20); {
			case op == 0:
				now, _ = l.GC.CollectOnce(now)
			case op <= 2:
				now = l.TrimPages(lpn, n, now)
			case op <= 10:
				for k := int64(0); k < int64(n); k++ {
					c.predict("read", l, lpn+k)
				}
				now = l.ReadPages(lpn, n, now)
			default:
				now = l.WritePages(lpn, n, now)
			}
		}
		c.sweep("after churn", l)
		switch round % 3 {
		case 0: // keep the state to roll back to two rounds later
			e := persist.NewEncoder()
			l.SaveState(e)
			snap = e.Data()
		case 1:
			now = l.RecoverFromCrash(now)
			c.sweep("after crash recovery", l)
		case 2: // roll back: the memo holds answers of later tables
			if err := l.LoadState(persist.NewDecoder(snap)); err != nil {
				t.Fatal(err)
			}
			e := persist.NewEncoder()
			l.SaveState(e)
			if !bytes.Equal(e.Data(), snap) {
				t.Fatal("the snapshot did not load back into its device")
			}
			c.sweep("after rollback", l)
		}
	}
	if l.Col.GCCount == 0 || l.Col.ModelTrainings == 0 {
		t.Fatalf("%d collections, %d trainings: want both", l.Col.GCCount, l.Col.ModelTrainings)
	}
	t.Logf("%d hits, %d stale slots, %d slots of another LPN", c.hits, c.stale, c.miss)
	if c.hits == 0 || c.stale == 0 || c.miss == 0 {
		t.Fatal("the run did not reach hits, stale slots and slots of other LPNs")
	}
}

// TestReadPagesZeroAlloc: on a warmed device a read allocates nothing,
// whether its LPNs' predictions are in the memo (a hot set read over and
// over) or not (LPNs across the device, each filling its slot and
// missing the model cache).
func TestReadPagesZeroAlloc(t *testing.T) {
	cfg := testConfig()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := fillSeq(t, l)
	rng := rand.New(rand.NewSource(3))
	lp := cfg.LogicalPages()
	for i := int64(0); i < lp; i++ {
		now = l.WritePages(rng.Int63n(lp), 1, now)
	}
	now = l.flush(now)
	for lpn := int64(0); lpn < lp; lpn++ { // every table and cache node made
		now = l.ReadPages(lpn, 1, now)
	}
	hot := rng.Int63n(lp - 4)
	hits := l.Col.ModelHits
	if a := testing.AllocsPerRun(1000, func() { now = l.ReadPages(hot, 4, now) }); a != 0 {
		t.Errorf("hot reads: %.1f allocations per read", a)
	}
	if l.Col.ModelHits == hits {
		t.Error("the hot reads never hit a cached, accurate model")
	}
	stride := int64(len(l.memo)) + int64(cfg.EntriesPerTP) + 1 // another slot and another table each read
	lpn := int64(0)
	trans := l.Fl.Counters().Reads[nand.OpTranslation]
	if a := testing.AllocsPerRun(1000, func() {
		lpn = (lpn + stride) % lp
		now = l.ReadPages(lpn, 1, now)
	}); a != 0 {
		t.Errorf("cold reads: %.1f allocations per read", a)
	}
	if l.Fl.Counters().Reads[nand.OpTranslation] == trans {
		t.Error("the cold reads never missed the model cache")
	}
}
