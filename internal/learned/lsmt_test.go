package learned

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
	if lt.NumSegments() != 2 {
		t.Fatalf("segments=%d", lt.NumSegments())
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
	if lt.NumSegments() != 2 {
		t.Fatalf("segments = %d, want 2", lt.NumSegments())
	}
	if s, _ := lt.Lookup(50); s.I != 9999 {
		t.Fatalf("Lookup(50) returned old segment %+v", s)
	}
	// LPNs outside the new range still resolve to the old one, which is
	// only partly shadowed and so survives a compaction.
	if s, ok := lt.Lookup(10); !ok || s.I != 0 {
		t.Fatalf("Lookup(10) = %+v,%v", s, ok)
	}
	if dropped := lt.CompactShadowed(); dropped != 0 {
		t.Fatalf("compaction dropped %d segments, want 0", dropped)
	}
}

func TestLSMTCascadingPushdown(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 3}})
	if lt.NumSegments() != 3 {
		t.Fatalf("segs=%d", lt.NumSegments())
	}
	if s, _ := lt.Lookup(5); s.I != 3 {
		t.Fatalf("newest insert does not win: %+v", s)
	}
	// Both older segments sit under the newest one: a compaction drops them.
	if dropped := lt.CompactShadowed(); dropped != 2 || lt.NumSegments() != 1 {
		t.Fatalf("dropped=%d segs=%d, want 2 and 1", dropped, lt.NumSegments())
	}
	if s, _ := lt.Lookup(5); s.I != 3 {
		t.Fatalf("survivor wrong: %+v", s)
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
	if dropped != 1 || lt.NumSegments() != 1 {
		t.Fatalf("dropped=%d segs=%d", dropped, lt.NumSegments())
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

// lsmtKeys is the key space the equivalence tests insert into.
const lsmtKeys = 200

// contractBatch is what FitSegments hands Insert for one translation page:
// 1–6 segments sorted by S, without overlaps, separated by gaps of 0–15 LPNs.
func contractBatch(rng *rand.Rand, step int) []Segment {
	n := 1 + rng.Intn(6)
	batch := make([]Segment, 0, n)
	for s := int64(rng.Intn(lsmtKeys - 1)); len(batch) < n && s < lsmtKeys; {
		l := 1 + rng.Intn(min(30, lsmtKeys-int(s)))
		batch = append(batch, Segment{S: s, L: int32(l), K: 1, I: float64(step*10 + len(batch))})
		s += int64(l + rng.Intn(16))
	}
	return batch
}

// anyBatch is 1–3 segments placed independently: unsorted and overlapping
// as often as not.
func anyBatch(rng *rand.Rand, step int) []Segment {
	batch := make([]Segment, 1+rng.Intn(3))
	for i := range batch {
		s := int64(rng.Intn(lsmtKeys - 1))
		l := 1 + rng.Intn(min(30, lsmtKeys-int(s)))
		batch[i] = Segment{S: s, L: int32(l), K: 1, I: float64(step*10 + i)}
	}
	return batch
}

// diverges describes how the table differs from the reference, or returns
// "" when it does not: every lookup, covered or not, the segment count, and
// the segments a snapshot carries — the reference's live segments in
// insertion order, which each segment's I encodes.
func diverges(lt *LSMT, ref *refLSMT) string {
	var want []Segment
	for _, lv := range ref.levels {
		want = append(want, lv...)
	}
	slices.SortFunc(want, func(a, b Segment) int { return cmp.Compare(a.I, b.I) })
	if lt.NumSegments() != len(want) {
		return fmt.Sprintf("%d segments, the reference %d", lt.NumSegments(), len(want))
	}
	if got := lt.Export(); !slices.Equal(got, want) {
		return fmt.Sprintf("exports %+v, the reference holds %+v", got, want)
	}
	for lpn := int64(-1); lpn <= lsmtKeys; lpn++ {
		gs, gok := lt.Lookup(lpn)
		ws, wok := ref.lookup(lpn)
		if gs != ws || gok != wok {
			return fmt.Sprintf("Lookup(%d) = %+v, %v; the reference %+v, %v", lpn, gs, gok, ws, wok)
		}
	}
	return ""
}

// matchReferences drives the table and the copy-splice table through the
// same random inserts and compactions, and describes the first step after
// which they diverge or a compaction's dropped count differs, or returns "".
func matchReferences(seed int64, steps int, batch func(*rand.Rand, int) []Segment) string {
	rng := rand.New(rand.NewSource(seed))
	lt, ref := NewLSMT(), &refLSMT{}
	for step := 0; step < steps; step++ {
		if rng.Intn(6) == 0 {
			if got, want := lt.CompactShadowed(), ref.compactShadowed(); got != want {
				return fmt.Sprintf("step %d: compaction dropped %d segments, the reference %d", step, got, want)
			}
		} else {
			b := batch(rng, step)
			for _, s := range b {
				ref.insertAt(0, s)
			}
			lt.Insert(b)
		}
		if d := diverges(lt, ref); d != "" {
			return fmt.Sprintf("step %d: %s", step, d)
		}
	}
	return ""
}

// TestLSMTInPlaceMatchesCopySplice holds the table in insertion order to the
// levelled reference over the batches LeaFTL inserts — sorted,
// non-overlapping runs with gaps — and random compactions, comparing what a
// snapshot carries, every lookup and every dropped count after every step,
// over 1 000 seeds. The reference compacts only below level 0, so equal
// dropped counts also show that a level-0 segment is never shadowed.
func TestLSMTInPlaceMatchesCopySplice(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		if d := matchReferences(seed, 80, contractBatch); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestLSMTAnyBatchMatchesReferences: a batch that is not one sorted,
// non-overlapping run inserts as its segments one at a time would.
func TestLSMTAnyBatchMatchesReferences(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		if d := matchReferences(seed, 80, anyBatch); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestLSMTSteadyStateInsertZeroAlloc pins LeaFTL's post-collection cycle at
// zero allocations once the table has found its size, for one segment and
// for a run of two.
func TestLSMTSteadyStateInsertZeroAlloc(t *testing.T) {
	// A retrained segment shadows the one the previous round inserted over
	// the same LPNs, which the compaction drops, freeing a slot the next
	// insert takes. The wider, older segments stay partly visible.
	t.Run("segment", func(t *testing.T) {
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
		if lt.NumSegments() != 2*nseg {
			t.Fatalf("steady state holds %d segments, want %d", lt.NumSegments(), 2*nseg)
		}
	})
	// Each of nreg regions of 32 LPNs alternates between two runs,
	// A = {[0,8), [12,20)} and B = {[4,12), [16,24)}: each overlaps both
	// segments of the other, and neither covers any segment of the other.
	// Inserting A over B shadows the older A, which the compaction drops,
	// and leaves B partly visible. A segment [0,32) older than both stays
	// visible past LPN 24.
	t.Run("run cascade", func(t *testing.T) {
		const nreg = 16
		run := func(r int, b bool) []Segment {
			base, shift := int64(r*32), int64(0)
			if b {
				shift = 4
			}
			return []Segment{
				{S: base + shift, L: 8, K: 1, I: float64(r)},
				{S: base + 12 + shift, L: 8, K: 1, I: float64(r)},
			}
		}
		lt := NewLSMT()
		for r := 0; r < nreg; r++ {
			lt.Insert([]Segment{seg(int64(r*32), 32)})
			lt.Insert(run(r, false))
			lt.Insert(run(r, true))
		}
		batch := make([]Segment, 2)
		i, dropped := 0, 0
		cycle := func() {
			r := i % nreg
			copy(batch, run(r, i/nreg%2 == 1))
			lt.Insert(batch)
			dropped += lt.CompactShadowed()
			i++
		}
		for i < 4*nreg {
			cycle()
		}
		dropped = 0
		const cycles = 500
		if a := testing.AllocsPerRun(cycles, cycle); a != 0 {
			t.Fatalf("steady-state run Insert + CompactShadowed allocates %.0f times per cycle", a)
		}
		// AllocsPerRun runs the cycle once more than it measures.
		if dropped != 2*(cycles+1) {
			t.Fatalf("%d cycles dropped %d segments, want 2 each", cycles+1, dropped)
		}
		if lt.NumSegments() != 5*nreg {
			t.Fatalf("steady state holds %d segments, want %d", lt.NumSegments(), 5*nreg)
		}
	})
}

// TestFitSegmentsMeetsInsertContract: whatever the points, error bound and
// length cap, FitSegments returns one run Insert merges at once — sorted by
// S, without overlaps, every segment spanning at least one LPN — and every
// point lies in the segment fitted over it.
func TestFitSegmentsMeetsInsertContract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, rng.Intn(600))
		x, y := int64(rng.Intn(1000)), int64(rng.Intn(1<<20))
		for i := range pts {
			x += 1 + int64(rng.Intn(1+rng.Intn(4)))
			if rng.Intn(8) == 0 {
				y = int64(rng.Intn(1 << 20))
			} else {
				y += int64(rng.Intn(3))
			}
			pts[i] = Point{X: x, Y: y}
		}
		segs := FitSegments(pts, int64(rng.Intn(9)), 1+rng.Intn(300))
		p := 0
		for k, s := range segs {
			if s.L < 1 || k > 0 && s.S < segs[k-1].S+int64(segs[k-1].L) {
				return false
			}
			for p < len(pts) && s.Contains(pts[p].X) {
				p++
			}
		}
		return p == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestImportRejectsWhatTheSlabCannotHold: a span or an error outside 16
// bits, a segment outside the key range, or more segments than a table has
// handles, is an error that leaves the table as it was. Overlapping
// segments are not: the newest covering an LPN answers for it.
func TestImportRejectsWhatTheSlabCannotHold(t *testing.T) {
	full := make([]Segment, maxSegments+1)
	for i := range full {
		full[i] = seg(int64(i), 1)
	}
	for name, segs := range map[string][]Segment{
		"span of no LPN":     {seg(0, 0)},
		"span of 2^16 LPNs":  {seg(0, 1<<16)},
		"negative error":     {{S: 0, L: 4, Err: -1}},
		"error of 2^16":      {{S: 0, L: 4, Err: 1 << 16}},
		"2^16 segments":      full,
		"start past 2^31-1":  {seg(1<<31, 1)},
		"end past 2^31-1":    {seg(1<<31-2, 4)},
		"negative start LPN": {seg(-1, 4)},
	} {
		lt := NewLSMT()
		lt.Insert([]Segment{seg(0, 8)})
		if err := lt.Import(segs); err == nil {
			t.Errorf("%s: imported", name)
		}
		if s, ok := lt.Lookup(3); lt.NumSegments() != 1 || !ok || s != seg(0, 8) {
			t.Errorf("%s: a rejected import changed the table", name)
		}
	}
	lt := NewLSMT()
	widest := seg(0, 1<<16-1)
	if err := lt.Import([]Segment{widest, {S: 1 << 16, L: 1, Err: 1<<16 - 1}, seg(8, 4), seg(4, 8)}); err != nil {
		t.Fatalf("the largest span and error, overlapping, rejected: %v", err)
	}
	for lpn, want := range map[int64]Segment{3: widest, 4: seg(4, 8), 9: seg(4, 8), 12: widest, 1<<16 - 2: widest} {
		if s, ok := lt.Lookup(lpn); !ok || s != want {
			t.Fatalf("Lookup(%d) = %+v, %v; want %+v", lpn, s, ok, want)
		}
	}
	if dropped := lt.CompactShadowed(); dropped != 1 || lt.NumSegments() != 3 {
		t.Fatalf("compaction dropped %d of 4 segments, leaving %d; want the one covered by a newer one", dropped, lt.NumSegments())
	}
}

// TestLSMTFullTableCompactsBeforeInserting: a table that would pass its
// 2^16-1 handles drops its shadowed segments first — lookups cannot tell,
// also when the limit falls inside a batch whose later runs overlap its
// earlier ones — and one whose segments are all visible refuses the
// insert loudly.
func TestLSMTFullTableCompactsBeforeInserting(t *testing.T) {
	// Each of the first n LPNs is covered twice, the older segment
	// shadowed, and LPN n once, which leaves two handles. The batch's runs
	// A = [n+1, n+3), B = [n+2, n+3) and C = [n+2, n+3) take them, B
	// shadowing half of A, and pass the limit at C.
	const n = maxSegments/2 - 1
	lt := NewLSMT()
	for s := int64(0); s < n; s++ {
		lt.Insert([]Segment{seg(s, 1)})
		lt.Insert([]Segment{{S: s, L: 1, K: 1, I: -float64(s)}})
	}
	lt.Insert([]Segment{seg(n, 1)})
	lt.Insert([]Segment{{S: n + 1, L: 2, K: 1, I: 1}, {S: n + 2, L: 1, K: 1, I: 2}, {S: n + 2, L: 1, K: 1, I: 3}})
	if want := n + 4; lt.NumSegments() != want {
		t.Fatalf("%d segments, want %d: the shadowed ones compacted away", lt.NumSegments(), want)
	}
	for lpn := int64(0); lpn < n; lpn++ {
		if s, ok := lt.Lookup(lpn); !ok || s.I != -float64(lpn) {
			t.Fatalf("Lookup(%d) = %+v, %v; want the newer segment", lpn, s, ok)
		}
	}
	for lpn, want := range map[int64]float64{n: n * 10, n + 1: 1, n + 2: 3} {
		if s, ok := lt.Lookup(lpn); !ok || s.I != want {
			t.Fatalf("Lookup(%d) = %+v, %v; want the segment with I %v", lpn, s, ok, want)
		}
	}

	visible := make([]Segment, maxSegments)
	for i := range visible {
		visible[i] = seg(int64(i), 1)
	}
	lt = NewLSMT()
	lt.Insert(visible)
	defer func() {
		if recover() == nil {
			t.Fatal("an insert past the handle limit did not panic")
		}
	}()
	lt.Insert([]Segment{seg(maxSegments, 1)})
}
