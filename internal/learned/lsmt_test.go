package learned

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func seg(s, l int64) Segment {
	return Segment{S: s, L: int32(l), K: 1, I: float64(s * 10)}
}

func TestLSMTInsertAndLookup(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{seg(0, 10), seg(20, 10)})
	if lt.NumSegments() != 2 || lt.NumLevels() != 1 {
		t.Fatalf("segments=%d levels=%d", lt.NumSegments(), lt.NumLevels())
	}
	if s, ok := lt.Lookup(5); !ok || s.S != 0 {
		t.Fatalf("Lookup(5) = %+v,%v", s, ok)
	}
	if s, ok := lt.Lookup(25); !ok || s.S != 20 {
		t.Fatalf("Lookup(25) = %+v,%v", s, ok)
	}
	if _, ok := lt.Lookup(15); ok {
		t.Fatal("Lookup(15) found in gap")
	}
}

func TestLSMTNewerWins(t *testing.T) {
	lt := NewLSMT()
	old := Segment{S: 0, L: 100, K: 1, I: 0}
	lt.Insert([]Segment{old})
	newer := Segment{S: 40, L: 20, K: 1, I: 9999}
	lt.Insert([]Segment{newer})
	if lt.NumLevels() != 2 {
		t.Fatalf("levels = %d, want 2", lt.NumLevels())
	}
	if s, _ := lt.Lookup(50); s.I != 9999 {
		t.Fatalf("Lookup(50) returned old segment %+v", s)
	}
	// LPNs outside the new range still resolve to the old one, pushed down.
	if s, ok := lt.Lookup(10); !ok || s.I != 0 {
		t.Fatalf("Lookup(10) = %+v,%v", s, ok)
	}
}

func TestLSMTCascadingPushdown(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 3}})
	if lt.NumLevels() != 3 || lt.NumSegments() != 3 {
		t.Fatalf("levels=%d segs=%d", lt.NumLevels(), lt.NumSegments())
	}
	if s, _ := lt.Lookup(5); s.I != 3 {
		t.Fatalf("newest insert does not win: %+v", s)
	}
}

func TestLSMTCompactShadowed(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}}) // fully shadows the first
	if lt.NumSegments() != 2 {
		t.Fatal("setup wrong")
	}
	dropped := lt.CompactShadowed()
	if dropped != 1 || lt.NumSegments() != 1 || lt.NumLevels() != 1 {
		t.Fatalf("dropped=%d segs=%d levels=%d", dropped, lt.NumSegments(), lt.NumLevels())
	}
	if s, _ := lt.Lookup(5); s.I != 2 {
		t.Fatalf("survivor wrong: %+v", s)
	}
}

func TestLSMTCompactKeepsPartiallyVisible(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 20, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}}) // shadows only half
	if dropped := lt.CompactShadowed(); dropped != 0 {
		t.Fatalf("dropped %d, want 0", dropped)
	}
	if s, _ := lt.Lookup(15); s.I != 1 {
		t.Fatalf("partially visible segment lost: %+v", s)
	}
}

func TestLSMTSizeBytes(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{seg(0, 10), seg(20, 10), seg(40, 10)})
	if got := lt.SizeBytes(); got != 3*SegmentBytes {
		t.Fatalf("SizeBytes = %d", got)
	}
}

// Property: after inserting arbitrary batches, Lookup always returns the
// segment from the most recent batch whose range covers the key.
func TestLSMTRecencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lt := NewLSMT()
		const keys = 200
		newest := make([]float64, keys) // shadow: newest I covering each key
		for i := range newest {
			newest[i] = -1
		}
		for batch := 1; batch <= 20; batch++ {
			s := int64(rng.Intn(keys - 1))
			l := int64(1 + rng.Intn(keys-int(s)))
			segm := Segment{S: s, L: int32(l), K: 0, I: float64(batch)}
			lt.Insert([]Segment{segm})
			for k := s; k < s+l; k++ {
				newest[k] = float64(batch)
			}
		}
		for k := 0; k < keys; k++ {
			s, ok := lt.Lookup(int64(k))
			if newest[k] < 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || s.I != newest[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refLSMT is the table by its original definition — every insert rebuilds
// the level around the new segment and copies the run it overlaps before
// pushing it down; compaction rebuilds each level from the survivors — kept
// as the reference the in-place table is checked against.
type refLSMT struct{ levels [][]Segment }

func (t *refLSMT) insertAt(level int, seg Segment) {
	if level == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	lv := t.levels[level]
	lo, hi := seg.S, seg.S+int64(seg.L)
	i := 0
	for i < len(lv) && lv[i].S+int64(lv[i].L) <= lo {
		i++
	}
	j := i
	for j < len(lv) && lv[j].S < hi {
		j++
	}
	evicted := append([]Segment(nil), lv[i:j]...)
	nlv := append([]Segment(nil), lv[:i]...)
	nlv = append(nlv, seg)
	t.levels[level] = append(nlv, lv[j:]...)
	for _, ev := range evicted {
		t.insertAt(level+1, ev)
	}
}

// lookup is Lookup as it was first written: per level, sort.Search for the
// first segment ending past lpn.
func (t *refLSMT) lookup(lpn int64) (Segment, bool) {
	for _, lv := range t.levels {
		i := sort.Search(len(lv), func(k int) bool { return lv[k].S+int64(lv[k].L) > lpn })
		if i < len(lv) && lv[i].Contains(lpn) {
			return lv[i], true
		}
	}
	return Segment{}, false
}

func (t *refLSMT) covered(lpn int64, below int) bool {
	for _, lv := range t.levels[:below] {
		for _, s := range lv {
			if s.Contains(lpn) {
				return true
			}
		}
	}
	return false
}

func (t *refLSMT) compactShadowed() int {
	dropped := 0
	for li := 1; li < len(t.levels); li++ {
		var keep []Segment
		for _, s := range t.levels[li] {
			shadowed := true
			for lpn := s.S; lpn < s.S+int64(s.L); lpn++ {
				shadowed = shadowed && t.covered(lpn, li)
			}
			if shadowed {
				dropped++
			} else {
				keep = append(keep, s)
			}
		}
		t.levels[li] = keep
	}
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	return dropped
}

// TestLSMTInPlaceMatchesCopySplice drives random overlapping inserts and
// compactions through the in-place table and the reference, comparing the
// exported level structure — what a snapshot carries — and the lookup of
// every key, covered or not, after every step.
func TestLSMTInPlaceMatchesCopySplice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lt, ref := NewLSMT(), &refLSMT{}
		const keys = 300
		nseg := 0
		for step := 0; step < 150; step++ {
			if rng.Intn(6) == 0 {
				dropped := ref.compactShadowed()
				if lt.CompactShadowed() != dropped {
					return false
				}
				nseg -= dropped
			} else {
				batch := make([]Segment, 1+rng.Intn(3))
				for i := range batch {
					s := int64(rng.Intn(keys - 1))
					l := 1 + rng.Intn(min(40, keys-int(s)))
					batch[i] = Segment{S: s, L: int32(l), K: 1, I: float64(step*10 + i)}
					ref.insertAt(0, batch[i])
				}
				lt.Insert(batch)
				nseg += len(batch)
			}
			got := lt.ExportLevels()
			if len(got) != len(ref.levels) || lt.NumSegments() != nseg {
				return false
			}
			for li := range got {
				if len(got[li]) != len(ref.levels[li]) {
					return false
				}
				for si := range got[li] {
					if got[li][si] != ref.levels[li][si] {
						return false
					}
				}
			}
			for lpn := int64(-1); lpn <= keys; lpn++ {
				gs, gok := lt.Lookup(lpn)
				ws, wok := ref.lookup(lpn)
				if gs != ws || gok != wok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLSMTSteadyStateInsertZeroAlloc pins LeaFTL's post-collection cycle at
// zero allocations once the levels have found their size: a retrained
// segment replaces the one it overlaps in level 0, the replaced one moves
// down into a slot a compaction freed, and is compacted away in turn. The
// wider, only partly covered segments settle a level further down, so the
// level in between is never the tail and keeps its slots.
func TestLSMTSteadyStateInsertZeroAlloc(t *testing.T) {
	const nseg = 32
	lt := NewLSMT()
	for s := int64(0); s < nseg; s++ {
		lt.Insert([]Segment{seg(s*16, 16)})
	}
	batch := make([]Segment, 1)
	i := 0
	cycle := func() {
		batch[0] = Segment{S: int64(i % nseg * 16), L: 8, K: 1, I: float64(i)}
		lt.Insert(batch)
		lt.CompactShadowed()
		i++
	}
	for i < 2*nseg {
		cycle()
	}
	if a := testing.AllocsPerRun(500, cycle); a != 0 {
		t.Fatalf("steady-state Insert + CompactShadowed allocates %.0f times per cycle", a)
	}
	if lt.NumLevels() != 3 || lt.NumSegments() != 2*nseg {
		t.Fatalf("steady state holds %d segments in %d levels, want %d in 3", lt.NumSegments(), lt.NumLevels(), 2*nseg)
	}
}
