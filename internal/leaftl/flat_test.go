package leaftl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"testing"

	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// warmedForSnapshot drives a device through overwrites, reads and trims —
// flushes, GC with retraining, model-cache churn — and stops with a
// part-filled data buffer.
func warmedForSnapshot(t *testing.T) *LeaFTL {
	t.Helper()
	l, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	churn(l)
	if l.Col.GCCount == 0 || l.BufferedPages() == 0 {
		t.Fatalf("warm-up left %d GCs, %d buffered pages: want both", l.Col.GCCount, l.BufferedPages())
	}
	return l
}

// churn is warmedForSnapshot's fixed-seed mix of overwrites, reads and trims.
func churn(l *LeaFTL) {
	rng := rand.New(rand.NewSource(11))
	lp := l.Cfg.LogicalPages()
	now := nand.Time(0)
	for i := 0; i < 6000; i++ {
		lpn := rng.Int63n(lp - 4)
		switch rng.Intn(10) {
		case 0:
			now = l.TrimPages(lpn, 1+rng.Intn(3), now)
		case 1, 2, 3:
			now = l.ReadPages(lpn, 1+rng.Intn(4), now)
		default:
			now = l.WritePages(lpn, 1+rng.Intn(4), now)
		}
	}
}

// TestConcurrentDevicesMatchSerial: the LSMT scratch belongs to the device,
// so devices churned on their own goroutines, as sweep cells run them, reach
// the snapshot one device churned alone reaches. Scratch shared between
// devices diverges here, and is a data race under -race.
func TestConcurrentDevicesMatchSerial(t *testing.T) {
	snapshot := func(l *LeaFTL) []byte {
		e := persist.NewEncoder()
		l.SaveState(e)
		return e.Data()
	}
	want := snapshot(warmedForSnapshot(t))
	got := make([][]byte, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := New(testConfig())
			if err != nil {
				errs[i] = err
				return
			}
			churn(l)
			got[i] = snapshot(l)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("device %d of %d run concurrently ends in another state than one run alone", i, len(got))
		}
	}
}

// TestFlatStateMatchesMapBuiltSnapshot pins what the warmed device looks
// like from outside — snapshot bytes, buffered LPNs, live segments — to the
// values recorded when the buffer, the per-page models and the model-cache
// index were Go maps, and checks the snapshot loads back to the same bytes.
func TestFlatStateMatchesMapBuiltSnapshot(t *testing.T) {
	const (
		wantDigest   = "7326dc5b1d3e1b29"
		wantBuffered = 31
		wantSegments = 352
	)
	l := warmedForSnapshot(t)
	e := persist.NewEncoder()
	l.SaveState(e)
	sum := sha256.Sum256(e.Data())
	if got := hex.EncodeToString(sum[:8]); got != wantDigest {
		t.Errorf("snapshot digest %s, want %s", got, wantDigest)
	}
	lpns := l.BufferedLPNs()
	if len(lpns) != wantBuffered || len(lpns) != l.BufferedPages() {
		t.Errorf("%d buffered LPNs (BufferedPages %d), want %d", len(lpns), l.BufferedPages(), wantBuffered)
	}
	for i := 1; i < len(lpns); i++ {
		if lpns[i-1] >= lpns[i] {
			t.Fatalf("BufferedLPNs not ascending at %d: %d then %d", i, lpns[i-1], lpns[i])
		}
	}
	if got := l.SegmentsTotal(); got != wantSegments {
		t.Errorf("%d live segments, want %d", got, wantSegments)
	}

	fresh, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(persist.NewDecoder(e.Data())); err != nil {
		t.Fatal(err)
	}
	e2 := persist.NewEncoder()
	fresh.SaveState(e2)
	if !bytes.Equal(e.Data(), e2.Data()) {
		t.Fatal("snapshot does not survive a load/save round trip")
	}
}

// handleLimitLevels fills the page [lo, hi) with one-LPN segments, a level
// at a time, until there is one segment more than a table can name.
func handleLimitLevels(lo, hi int64) [][]learned.Segment {
	var levels [][]learned.Segment
	for n := 0; n <= math.MaxUint16; {
		var lv []learned.Segment
		for s := lo; s < hi && n <= math.MaxUint16; s++ {
			lv = append(lv, learned.Segment{S: s, L: 1, K: 1})
			n++
		}
		levels = append(levels, lv)
	}
	return levels
}

// TestLoadStateRejectsOutOfRangeIndexes: the buffer, the model table and
// the model-cache index are sized from the configuration, so a snapshot
// naming an LPN or a translation page outside it — or a level or segment
// count the stream cannot back — is an error, not a panic. So are learned
// segments an insert or a lookup would misread: a level out of S order or
// with overlapping segments, a segment spanning no LPN, one reaching
// outside its translation page, an error the packed segment record cannot
// hold, and more segments in one table than its handles can name.
func TestLoadStateRejectsOutOfRangeIndexes(t *testing.T) {
	cfg := testConfig()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// trained is a tail with no buffered LPN, one trained translation page
	// holding levels, and an empty model cache.
	trained := func(tpn int, levels ...[]learned.Segment) func(e *persist.Encoder) {
		return func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1)
			e.Int(tpn)
			e.U64(uint64(len(levels)))
			for _, lv := range levels {
				e.U64(uint64(len(lv)))
				for _, s := range lv {
					e.I64(s.S)
					e.I64(int64(s.L))
					e.F64(s.K)
					e.F64(s.I)
					e.I64(int64(s.Err))
				}
			}
			e.U64(0)
		}
	}
	load := func(tail func(e *persist.Encoder)) error {
		e := persist.NewEncoder()
		src.SaveBaseState(e)
		tail(e)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.LoadState(persist.NewDecoder(e.Data()))
	}
	lo, hi := cfg.TPRange(1)
	sg := func(s int64, l int32) learned.Segment { return learned.Segment{S: s, L: l, K: 1} }
	if err := load(trained(1, []learned.Segment{sg(lo, 4), sg(lo+4, 8)}, nil, []learned.Segment{sg(lo, int32(hi-lo))})); err != nil {
		t.Fatalf("well-formed levels rejected: %v", err)
	}
	tails := map[string]func(e *persist.Encoder){
		"level out of S order":            trained(1, []learned.Segment{sg(lo+20, 4), sg(lo+10, 4)}),
		"overlapping segments in a level": trained(1, []learned.Segment{sg(lo+10, 8), sg(lo+12, 4)}),
		"segments sharing a start":        trained(1, []learned.Segment{sg(lo+10, 1), sg(lo+10, 1)}),
		"segment spanning no LPN":         trained(1, nil, []learned.Segment{sg(lo+10, 0)}),
		"segment spanning minus one LPN":  trained(1, []learned.Segment{sg(lo+10, -1)}),
		"segment past its page":           trained(1, []learned.Segment{sg(hi-2, 4)}),
		"segment before its page":         trained(1, []learned.Segment{sg(lo-1, 2)}),
		"segment at the int64 edge":       trained(1, []learned.Segment{sg(math.MaxInt64-1, 4)}),
		"negative segment error":          trained(1, []learned.Segment{{S: lo, L: 4, Err: -1}}),
		"segment error past 16 bits":      trained(1, []learned.Segment{{S: lo, L: 4, Err: 1 << 16}}),
		"table past the handle limit":     trained(1, handleLimitLevels(lo, hi)...),
		"buffered LPN past the device": func(e *persist.Encoder) {
			e.U64(1)
			e.I64(cfg.LogicalPages())
		},
		"negative buffered LPN": func(e *persist.Encoder) {
			e.U64(1)
			e.I64(-1)
		},
		"trained page past the table": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1)
			e.Int(cfg.NumTPNs())
			e.U64(0)
		},
		"level count past the stream": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1)
			e.Int(0)
			e.U64(1 << 62)
		},
		"segment count past the stream": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1)
			e.Int(0)
			e.U64(1)
			e.U64(1 << 62)
		},
		"cached page past the table": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(0)
			e.U64(1)
			e.Int(-1)
			e.Int(16)
		},
	}
	for name, tail := range tails {
		if err := load(tail); err == nil {
			t.Errorf("%s: LoadState accepted it", name)
		}
	}
}

// topDownLookup is LSMT.Lookup as it was before the table kept a per-LPN
// index: each level, newest first, binary-searched for the last segment
// starting at or before lpn.
func topDownLookup(levels [][]learned.Segment, lpn int64) (learned.Segment, bool) {
	for _, lv := range levels {
		lo, hi := 0, len(lv)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if lv[mid].S <= lpn {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 && lv[lo-1].Contains(lpn) {
			return lv[lo-1], true
		}
	}
	return learned.Segment{}, false
}

// TestLookupMatchesTopDownScan: every table of a device answers every LPN of
// its translation page, and the one on either side, as a top-down scan of
// its exported levels does — after warm-up, after a snapshot is restored
// into a fresh device, and after collections retrain and compact it.
func TestLookupMatchesTopDownScan(t *testing.T) {
	check := func(when string, l *LeaFTL) {
		t.Helper()
		tables := 0
		for tpn, lt := range l.models {
			if lt == nil {
				continue
			}
			tables++
			levels := lt.ExportLevels()
			lo, hi := l.Cfg.TPRange(tpn)
			for lpn := lo - 1; lpn <= hi; lpn++ {
				gs, gok := lt.Lookup(lpn)
				ws, wok := topDownLookup(levels, lpn)
				if gs != ws || gok != wok {
					t.Fatalf("%s: page %d Lookup(%d) = %+v, %v; the top-down scan %+v, %v", when, tpn, lpn, gs, gok, ws, wok)
				}
			}
		}
		if tables == 0 {
			t.Fatalf("%s: no trained table", when)
		}
	}
	l := warmedForSnapshot(t)
	check("after warm-up", l)

	e := persist.NewEncoder()
	l.SaveState(e)
	restored, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(persist.NewDecoder(e.Data())); err != nil {
		t.Fatal(err)
	}
	check("after restore", restored)

	trainings := restored.Col.ModelTrainings
	now := nand.Time(0)
	for i := 0; i < 8; i++ {
		now, _ = restored.GC.CollectOnce(now)
	}
	if restored.Col.ModelTrainings == trainings {
		t.Fatal("forced collections retrained no table")
	}
	check("after forced GC", restored)
}
