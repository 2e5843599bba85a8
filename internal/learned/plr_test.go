package learned

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFitExactSingleLine(t *testing.T) {
	var pts []Point
	for i := int64(0); i < 100; i++ {
		pts = append(pts, Point{X: i, Y: 3*i + 7})
	}
	pieces := FitExact(pts)
	if len(pieces) != 1 {
		t.Fatalf("collinear points fitted with %d pieces", len(pieces))
	}
	for _, p := range pts {
		if got := pieces[0].Predict(p.X); got != p.Y {
			t.Fatalf("Predict(%d) = %d, want %d", p.X, got, p.Y)
		}
	}
}

func TestFitExactFractionalSlope(t *testing.T) {
	// Every other LPN present: slope 1/2, still exact under rounding.
	var pts []Point
	for i := int64(0); i < 50; i++ {
		pts = append(pts, Point{X: 2 * i, Y: i})
	}
	pieces := FitExact(pts)
	if len(pieces) != 1 {
		t.Fatalf("fractional-slope run fitted with %d pieces", len(pieces))
	}
	for _, p := range pts {
		if got := pieces[0].Predict(p.X); got != p.Y {
			t.Fatalf("Predict(%d) = %d, want %d", p.X, got, p.Y)
		}
	}
}

func TestFitExactBreaksAtDiscontinuity(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 100}, {4, 101}}
	pieces := FitExact(pts)
	if len(pieces) != 2 {
		t.Fatalf("got %d pieces, want 2", len(pieces))
	}
	if pieces[1].Off != 3 {
		t.Fatalf("second piece Off = %d, want 3", pieces[1].Off)
	}
}

func TestFitExactSinglePoint(t *testing.T) {
	pieces := FitExact([]Point{{X: 5, Y: 42}})
	if len(pieces) != 1 || pieces[0].Predict(5) != 42 {
		t.Fatalf("single point fit wrong: %+v", pieces)
	}
}

func TestFitExactEmpty(t *testing.T) {
	if got := FitExact(nil); got != nil {
		t.Fatalf("FitExact(nil) = %v", got)
	}
}

// Property: FitExact always predicts every training point exactly, for
// arbitrary monotone key sets and arbitrary positions.
func TestFitExactAlwaysExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		pts := make([]Point, n)
		x := int64(0)
		for i := range pts {
			x += 1 + int64(rng.Intn(5))
			pts[i] = Point{X: x, Y: rng.Int63n(1 << 20)}
		}
		pieces := FitExact(pts)
		pi := 0
		for _, p := range pts {
			for pi+1 < len(pieces) && p.X >= pieces[pi+1].Off {
				pi++
			}
			if pieces[pi].Predict(p.X) != p.Y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitExactCappedKeepsBestCoverage(t *testing.T) {
	// 3 runs of lengths 50, 5, 40; cap at 2 → keep the 50 and 40 runs.
	var pts []Point
	for i := int64(0); i < 50; i++ {
		pts = append(pts, Point{X: i, Y: i})
	}
	for i := int64(0); i < 5; i++ {
		pts = append(pts, Point{X: 100 + i, Y: 1000 + 7*i})
	}
	for i := int64(0); i < 40; i++ {
		pts = append(pts, Point{X: 200 + i, Y: 5000 + i})
	}
	kept, covered := FitExactCapped(pts, 2)
	if len(kept) != 2 {
		t.Fatalf("kept %d pieces", len(kept))
	}
	if covered != 90 {
		t.Fatalf("covered %d points, want 90", covered)
	}
	if kept[0].Off != 0 || kept[1].Off != 200 {
		t.Fatalf("kept wrong pieces: %+v", kept)
	}
}

func TestFitExactCappedUnderCap(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 2}}
	kept, covered := FitExactCapped(pts, 8)
	if len(kept) != 1 || covered != 3 {
		t.Fatalf("kept=%d covered=%d", len(kept), covered)
	}
}

func TestFitSegmentsExactRun(t *testing.T) {
	var pts []Point
	for i := int64(0); i < 200; i++ {
		pts = append(pts, Point{X: i, Y: i + 10})
	}
	segs := FitSegments(pts, 0, 256)
	if len(segs) != 1 {
		t.Fatalf("got %d segments", len(segs))
	}
	if segs[0].Err != 0 {
		t.Fatalf("exact run has Err=%d", segs[0].Err)
	}
}

func TestFitSegmentsRespectsMaxLen(t *testing.T) {
	var pts []Point
	for i := int64(0); i < 600; i++ {
		pts = append(pts, Point{X: i, Y: i})
	}
	segs := FitSegments(pts, 0, 256)
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3 (600/256)", len(segs))
	}
	for _, s := range segs {
		if s.L > 256 {
			t.Fatalf("segment span %d exceeds 256", s.L)
		}
	}
}

// Property: FitSegments honors the error bound for all training points.
func TestFitSegmentsErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gamma := int64(rng.Intn(8))
		n := 2 + rng.Intn(300)
		pts := make([]Point, n)
		x, y := int64(0), int64(0)
		for i := range pts {
			x += 1 + int64(rng.Intn(3))
			y += int64(rng.Intn(5))
			pts[i] = Point{X: x, Y: y}
		}
		segs := FitSegments(pts, gamma, 256)
		for _, p := range pts {
			found := false
			for _, s := range segs {
				if s.Contains(p.X) {
					e := s.Predict(p.X) - p.Y
					if e < 0 {
						e = -e
					}
					// Realized error must not exceed the recorded Err, and
					// the recorded Err must be within gamma plus rounding.
					if e > int64(s.Err) || int64(s.Err) > gamma+1 {
						return false
					}
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFitSegmentsApproximateCompresses(t *testing.T) {
	// Noisy but near-linear mapping: gamma=4 should need far fewer segments
	// than gamma=0.
	rng := rand.New(rand.NewSource(7))
	var pts []Point
	for i := int64(0); i < 500; i++ {
		pts = append(pts, Point{X: i, Y: i + int64(rng.Intn(5)) - 2})
	}
	exact := FitSegments(pts, 0, 256)
	approx := FitSegments(pts, 4, 256)
	if len(approx) >= len(exact) {
		t.Fatalf("gamma=4 gave %d segments, gamma=0 gave %d", len(approx), len(exact))
	}
}

// TestAppendFitSegmentsZeroAlloc: LeaFTL fits every trained translation
// page into one reused buffer, which must come back holding what FitSegments
// returns and, once it has room, cost no allocation.
func TestAppendFitSegmentsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 512)
	x, y := int64(0), int64(0)
	for i := range pts {
		x += 1 + int64(rng.Intn(2))
		y += int64(rng.Intn(3))
		pts[i] = Point{X: x, Y: y}
	}
	want := FitSegments(pts, 4, 256)
	buf := make([]Segment, 0, len(want))
	var got []Segment
	if a := testing.AllocsPerRun(100, func() { got = AppendFitSegments(buf[:0], pts, 4, 256) }); a != 0 {
		t.Fatalf("AppendFitSegments into a buffer with room allocates %.0f times", a)
	}
	if len(got) != len(want) {
		t.Fatalf("%d segments, FitSegments fits %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, FitSegments fits %+v", i, got[i], want[i])
		}
	}
}

func TestSegmentContains(t *testing.T) {
	s := Segment{S: 10, L: 5}
	for lpn, want := range map[int64]bool{9: false, 10: true, 14: true, 15: false} {
		if got := s.Contains(lpn); got != want {
			t.Errorf("Contains(%d) = %v, want %v", lpn, got, want)
		}
	}
}

// TestSegmentIs32Bytes pins the field order: a lookup returns a segment by
// value and a fit appends them, so 8 bytes of padding would be a fifth of
// every copy.
func TestSegmentIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Segment{}); got != 32 {
		t.Fatalf("Segment is %d bytes, want 32", got)
	}
}

// TestSlabRecordIs24Bytes pins the packed record an LSMT's slab holds per
// segment: the 8 bytes it saves against a Segment pay for the table's
// per-LPN index.
func TestSlabRecordIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 24 {
		t.Fatalf("record is %d bytes, want 24", got)
	}
}
