package leaftl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// warmedForSnapshot drives a device through overwrites, reads and trims —
// flushes, GC with retraining, model-cache churn — and stops with a
// part-filled data buffer.
func warmedForSnapshot(t *testing.T) *LeaFTL {
	t.Helper()
	cfg := testConfig()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	lp := cfg.LogicalPages()
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
	if l.Col.GCCount == 0 || l.BufferedPages() == 0 {
		t.Fatalf("warm-up left %d GCs, %d buffered pages: want both", l.Col.GCCount, l.BufferedPages())
	}
	return l
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

// TestLoadStateRejectsOutOfRangeIndexes: the buffer, the model table and
// the model-cache index are sized from the configuration, so a snapshot
// naming an LPN or a translation page outside it — or a level or segment
// count the stream cannot back — is an error, not a panic.
func TestLoadStateRejectsOutOfRangeIndexes(t *testing.T) {
	cfg := testConfig()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tails := map[string]func(e *persist.Encoder){
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
		e := persist.NewEncoder()
		src.SaveBaseState(e)
		tail(e)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadState(persist.NewDecoder(e.Data())); err == nil {
			t.Errorf("%s: LoadState accepted it", name)
		}
	}
}
