package leaftl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	churn(l, 11)
	if l.Col.GCCount == 0 || l.BufferedPages() == 0 {
		t.Fatalf("warm-up left %d GCs, %d buffered pages: want both", l.Col.GCCount, l.BufferedPages())
	}
	return l
}

// churn drives warmedForSnapshot's mix of overwrites, reads and trims from
// seed and returns when the last request completes.
func churn(l *LeaFTL, seed int64) nand.Time {
	rng := rand.New(rand.NewSource(seed))
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
	return now
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
			churn(l, 11)
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
// The digest was re-recorded when the tables came to be written oldest
// first instead of by level: the bytes before and after the segment section
// stayed the same, and so did each table's segments.
func TestFlatStateMatchesMapBuiltSnapshot(t *testing.T) {
	const (
		wantDigest   = "71c5075a02121775"
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

// TestLoadStateRejectsOutOfRangeIndexes: the buffer, the model table and
// the model-cache index are sized from the configuration, so a snapshot
// naming an LPN or a translation page outside it — or a segment count the
// stream cannot back — is an error, not a panic. So are learned
// segments an insert or a lookup would misread: a segment spanning no LPN,
// one reaching outside its translation page, a span or an error the packed
// segment record cannot hold, and more segments in one table than its
// handles can name. Segments overlapping each other are legal: they load
// in insertion order, the newest covering an LPN answering for it.
func TestLoadStateRejectsOutOfRangeIndexes(t *testing.T) {
	cfg := testConfig()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// segment is one segment's fields as SaveState writes them, wide enough
	// for values no Segment field holds.
	type segment struct {
		s, l, err int64
	}
	// trained is a tail with no buffered LPN, one trained translation page
	// holding segs, oldest first, and an empty model cache.
	trained := func(tpn int, segs ...segment) func(e *persist.Encoder) {
		return func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1)
			e.Int(tpn)
			e.U64(uint64(len(segs)))
			for _, s := range segs {
				e.I64(s.s)
				e.I64(s.l)
				e.F64(1)
				e.F64(0)
				e.I64(s.err)
			}
			e.U64(0)
		}
	}
	var loaded *LeaFTL
	load := func(tail func(e *persist.Encoder)) error {
		e := persist.NewEncoder()
		src.SaveBaseState(e)
		tail(e)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loaded = fresh
		return fresh.LoadState(persist.NewDecoder(e.Data()))
	}
	lo, hi := cfg.TPRange(1)
	whole := segment{lo, hi - lo, 0}
	if err := load(trained(1, whole, segment{lo + 4, 8, 3}, segment{lo, 8, 1<<16 - 1})); err != nil {
		t.Fatalf("well-formed overlapping segments rejected: %v", err)
	}
	for lpn, want := range map[int64]int32{lo: 1<<16 - 1, lo + 9: 3, lo + 12: 0, hi - 1: 0} {
		if s, ok := loaded.models[1].Lookup(lpn); !ok || s.Err != want {
			t.Fatalf("Lookup(%d) = %+v, %v; want the newest segment covering it, error %d", lpn, s, ok, want)
		}
	}
	// One-LPN segments over the page, over and over, one more than a table
	// can name.
	limit := make([]segment, math.MaxUint16+1)
	for i := range limit {
		limit[i] = segment{lo + int64(i)%(hi-lo), 1, 0}
	}
	tails := map[string]func(e *persist.Encoder){
		"segment spanning no LPN":        trained(1, whole, segment{lo + 10, 0, 0}),
		"segment spanning minus one LPN": trained(1, segment{lo + 10, -1, 0}),
		"segment span past 32 bits":      trained(1, segment{lo, 1<<32 + 4, 0}),
		"segment past its page":          trained(1, segment{hi - 2, 4, 0}),
		"segment before its page":        trained(1, segment{lo - 1, 2, 0}),
		"segment at the int64 edge":      trained(1, segment{math.MaxInt64 - 1, 4, 0}),
		"negative segment error":         trained(1, segment{lo, 4, -1}),
		"segment error past 16 bits":     trained(1, segment{lo, 4, 1 << 16}),
		"segment error past 32 bits":     trained(1, segment{lo, 4, 1<<32 + 1}),
		"table past the handle limit":    trained(1, limit...),
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
		"segment count past the stream": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1)
			e.Int(0)
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

// topDownLookup is LSMT.Lookup without the per-LPN index: the segments,
// newest first, scanned for the first covering lpn.
func topDownLookup(segs []learned.Segment, lpn int64) (learned.Segment, bool) {
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Contains(lpn) {
			return segs[i], true
		}
	}
	return learned.Segment{}, false
}

// TestLookupMatchesTopDownScan: every table of a device answers every LPN of
// its translation page, and the one on either side, as a newest-first scan
// of its exported segments does — after warm-up, after a snapshot is restored
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
			segs := lt.Export(nil)
			lo, hi := l.Cfg.TPRange(tpn)
			for lpn := lo - 1; lpn <= hi; lpn++ {
				gs, gok := lt.Lookup(lpn)
				ws, wok := topDownLookup(segs, lpn)
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

// TestRestoredTablesAnswerAsTheSource: a device restored from a snapshot
// answers every LPN's lookup and counts every table's segments as the
// device the snapshot was taken from, and the same requests then take both
// to the same end — the counters, flash operations and mapping the
// benchmark's sim_digest hashes, and the same next snapshot.
func TestRestoredTablesAnswerAsTheSource(t *testing.T) {
	src := warmedForSnapshot(t)
	e := persist.NewEncoder()
	src.SaveState(e)
	dst, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadState(persist.NewDecoder(e.Data())); err != nil {
		t.Fatal(err)
	}
	for tpn, lt := range src.models {
		got := dst.models[tpn]
		if lt == nil || got == nil {
			if lt != got {
				t.Fatalf("page %d: trained %v, restored trained %v", tpn, lt != nil, got != nil)
			}
			continue
		}
		if lt.NumSegments() != got.NumSegments() {
			t.Fatalf("page %d: %d segments, restored %d", tpn, lt.NumSegments(), got.NumSegments())
		}
		lo, hi := src.Cfg.TPRange(tpn)
		for lpn := lo; lpn < hi; lpn++ {
			ws, wok := lt.Lookup(lpn)
			if gs, gok := got.Lookup(lpn); gs != ws || gok != wok {
				t.Fatalf("page %d: restored Lookup(%d) = %+v, %v; the source %+v, %v", tpn, lpn, gs, gok, ws, wok)
			}
		}
	}
	// The collector and the flash counters are not device state: the
	// snapshot leaves them behind, and the benchmark resets them per phase.
	for _, l := range []*LeaFTL{src, dst} {
		l.Col.Reset()
		l.Fl.ResetCounters()
	}
	digest := func(l *LeaFTL, done nand.Time) (string, []byte) {
		h := sha256.New()
		c := l.Col
		fmt.Fprintf(h, "%d|%d %d %d %d|%d %d %d|%v|%d %d %d %d %d|%+v|", done,
			c.HostReads, c.HostWrites, c.HostReadPages, c.HostWritePages,
			c.CMTHits, c.ModelHits, c.CMTLookups, c.ReadClasses,
			c.GCCount, c.BGGCCount, c.GCPagesMoved, c.GCBusyTime, c.ModelTrainings,
			l.Fl.Counters())
		for lpn := int64(0); lpn < l.Cfg.LogicalPages(); lpn++ {
			fmt.Fprintf(h, "%d,", l.L2P.Get(lpn))
		}
		e := persist.NewEncoder()
		l.SaveState(e)
		return hex.EncodeToString(h.Sum(nil)), e.Data()
	}
	want, wantSnap := digest(src, churn(src, 12))
	if src.Col.GCCount == 0 {
		t.Fatal("the continuation collected no garbage")
	}
	got, gotSnap := digest(dst, churn(dst, 12))
	if got != want || !bytes.Equal(gotSnap, wantSnap) {
		t.Fatalf("the same requests took the restored device to digest %s, the source to %s (snapshots equal: %v)", got, want, bytes.Equal(gotSnap, wantSnap))
	}
}
