package learned

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestInPlaceModelUntrained(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	if m.Trained() {
		t.Fatal("new model claims trained")
	}
	if _, ok := m.Predict(0); ok {
		t.Fatal("untrained model predicted")
	}
	if m.AccurateBits() != 0 {
		t.Fatal("untrained model has accurate bits")
	}
}

func TestTrainFullPerfectlyLinear(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	vppns := make([]int64, 512)
	base := int64(10000)
	for i := range vppns {
		vppns[i] = base + int64(i)
	}
	exact := m.TrainFull(base, vppns)
	if exact != 512 {
		t.Fatalf("exact = %d, want 512", exact)
	}
	if m.NumPieces() != 1 {
		t.Fatalf("pieces = %d, want 1", m.NumPieces())
	}
	for i := 0; i < 512; i++ {
		v, ok := m.Predict(i)
		if !ok || v != vppns[i] {
			t.Fatalf("Predict(%d) = %d,%v; want %d", i, v, ok, vppns[i])
		}
	}
}

func TestTrainFullWithHoles(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	vppns := make([]int64, 64)
	for i := range vppns {
		vppns[i] = -1
	}
	// Present LPNs get rank-order VPPNs (the post-GC layout): offsets
	// 0,2,4,...,30 → VPPNs 100..115 — one fractional-slope piece.
	for i := 0; i < 16; i++ {
		vppns[2*i] = 100 + int64(i)
	}
	exact := m.TrainFull(100, vppns)
	if exact != 16 {
		t.Fatalf("exact = %d, want 16", exact)
	}
	for i := 0; i < 16; i++ {
		v, ok := m.Predict(2 * i)
		if !ok || v != 100+int64(i) {
			t.Fatalf("Predict(%d) = %d,%v", 2*i, v, ok)
		}
	}
	// Absent offsets must not predict.
	if _, ok := m.Predict(1); ok {
		t.Fatal("absent offset predicted")
	}
}

func TestTrainFullCapDropsFragmentedRuns(t *testing.T) {
	m := NewInPlaceModel(512, 2)
	vppns := make([]int64, 512)
	for i := range vppns {
		vppns[i] = -1
	}
	// Three linear runs with distinct slopes/intercepts (gaps between runs
	// break collinearity): lengths 100, 10, 80. Cap 2 keeps 100 and 80.
	for i := 0; i < 100; i++ {
		vppns[i] = int64(i)
	}
	for i := 0; i < 10; i++ {
		vppns[150+i] = 5000 + int64(3*i)
	}
	for i := 0; i < 80; i++ {
		vppns[300+i] = 9000 + int64(i)
	}
	exact := m.TrainFull(0, vppns)
	if exact != 180 {
		t.Fatalf("exact = %d, want 180", exact)
	}
	if m.NumPieces() != 2 {
		t.Fatalf("pieces = %d, want 2", m.NumPieces())
	}
	if _, ok := m.Predict(155); ok {
		t.Fatal("dropped run still predicts")
	}
	if v, ok := m.Predict(310); !ok || v != 9010 {
		t.Fatalf("kept run Predict(310) = %d,%v", v, ok)
	}
}

func TestInvalidateClearsBit(t *testing.T) {
	m := NewInPlaceModel(16, 4)
	vppns := make([]int64, 16)
	for i := range vppns {
		vppns[i] = int64(i)
	}
	m.TrainFull(0, vppns)
	if !m.CanPredict(5) {
		t.Fatal("bit not set after training")
	}
	m.Invalidate(5)
	if m.CanPredict(5) {
		t.Fatal("bit set after Invalidate")
	}
	// Other bits untouched.
	if !m.CanPredict(4) || !m.CanPredict(6) {
		t.Fatal("Invalidate clobbered neighbors")
	}
	// Out-of-range invalidate must not panic.
	m.Invalidate(-1)
	m.Invalidate(999)
}

func TestSequentialInitOnUntrainedModel(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	if !m.SequentialInit(100, 32, 7000) {
		t.Fatal("init rejected")
	}
	for i := 0; i < 32; i++ {
		v, ok := m.Predict(100 + i)
		if !ok || v != 7000+int64(i) {
			t.Fatalf("Predict(%d) = %d,%v; want %d", 100+i, v, ok, 7000+int64(i))
		}
	}
	if _, ok := m.Predict(99); ok {
		t.Fatal("uncovered offset predicted")
	}
}

func TestSequentialInitSplitsExistingPiece(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	vppns := make([]int64, 64)
	for i := range vppns {
		vppns[i] = 1000 + int64(i)
	}
	m.TrainFull(1000, vppns)
	// Overwrite the middle [20,30) with new locations; write path clears
	// bits first.
	for i := 20; i < 30; i++ {
		m.Invalidate(i)
	}
	if !m.SequentialInit(20, 10, 5000) {
		t.Fatal("in-place update rejected")
	}
	// Head keeps old mapping, middle has new, tail keeps old.
	if v, ok := m.Predict(19); !ok || v != 1019 {
		t.Fatalf("head Predict(19) = %d,%v", v, ok)
	}
	if v, ok := m.Predict(25); !ok || v != 5005 {
		t.Fatalf("mid Predict(25) = %d,%v", v, ok)
	}
	if v, ok := m.Predict(30); !ok || v != 1030 {
		t.Fatalf("tail Predict(30) = %d,%v", v, ok)
	}
	if m.NumPieces() != 3 {
		t.Fatalf("pieces = %d, want 3", m.NumPieces())
	}
}

func TestSequentialInitSkipsWhenCoverageNotBetter(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	vppns := make([]int64, 64)
	for i := range vppns {
		vppns[i] = int64(i)
	}
	m.TrainFull(0, vppns)
	// The range is already fully accurate: a same-length init is pointless
	// and must be skipped (step ③/④ of §III-E1).
	if m.SequentialInit(10, 5, 999) {
		t.Fatal("init accepted despite full existing coverage")
	}
	if v, _ := m.Predict(12); v != 12 {
		t.Fatalf("model changed by skipped init: %d", v)
	}
}

func TestSequentialInitRejectsWhenPiecesFull(t *testing.T) {
	m := NewInPlaceModel(512, 2)
	if !m.SequentialInit(0, 10, 0) {
		t.Fatal("first init rejected")
	}
	if !m.SequentialInit(100, 10, 5000) {
		t.Fatal("second init rejected")
	}
	// Third disjoint run would need a 3rd piece.
	if m.SequentialInit(300, 10, 9000) {
		t.Fatal("init accepted beyond piece capacity")
	}
	// Existing predictions survive the rejected update.
	if v, ok := m.Predict(5); !ok || v != 5 {
		t.Fatalf("Predict(5) = %d,%v after rejected init", v, ok)
	}
}

func TestSequentialInitBoundsChecks(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	if m.SequentialInit(-1, 5, 0) || m.SequentialInit(60, 10, 0) || m.SequentialInit(0, 0, 0) {
		t.Fatal("out-of-bounds init accepted")
	}
}

func TestSizeBytesMatchesPaper(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	if got := m.SizeBytes(); got != 128 {
		t.Fatalf("SizeBytes = %d, want the paper's 128", got)
	}
}

// Property: after any sequence of TrainFull / Invalidate / SequentialInit,
// every Predict that returns ok yields the exact VPPN of the offset
// according to a shadow map — the §III-B "only accurate predictions"
// guarantee.
func TestInPlaceModelNeverWrongProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := 128
		m := NewInPlaceModel(span, 4)
		shadow := make([]int64, span) // -1 = unmapped
		for i := range shadow {
			shadow[i] = -1
		}
		nextVPPN := int64(1000)
		for step := 0; step < 60; step++ {
			switch rng.Intn(3) {
			case 0: // sequential write + init
				off := rng.Intn(span)
				n := 1 + rng.Intn(span-off)
				for i := 0; i < n; i++ {
					shadow[off+i] = nextVPPN + int64(i)
					m.Invalidate(off + i)
				}
				m.SequentialInit(off, n, nextVPPN)
				nextVPPN += int64(n) + int64(rng.Intn(100))
			case 1: // random single-page writes (invalidate only)
				off := rng.Intn(span)
				shadow[off] = nextVPPN
				m.Invalidate(off)
				nextVPPN += 1 + int64(rng.Intn(10))
			case 2: // GC retrain: valid pages re-laid out contiguously
				base := nextVPPN
				v := make([]int64, span)
				for i := range v {
					if shadow[i] >= 0 {
						shadow[i] = nextVPPN
						v[i] = nextVPPN
						nextVPPN++
					} else {
						v[i] = -1
					}
				}
				m.TrainFull(base, v)
			}
			// Check the invariant on all offsets.
			for off := 0; off < span; off++ {
				if v, ok := m.Predict(off); ok && v != shadow[off] {
					return false
				}
			}
			// The piece scan picks what the binary search it replaced did,
			// before the first piece and past the last offset included.
			for x := int64(-1); x <= int64(span); x++ {
				i := sort.Search(len(m.pieces), func(i int) bool { return m.pieces[i].Off > x })
				p, ok := m.pieceFor(x)
				if ok != (i > 0) || (ok && p != m.pieces[i-1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitmap wrong")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 || !b.Get(64) || b.Get(63) {
		t.Fatal("set/get wrong")
	}
	b.Clear(64)
	if b.Count() != 2 || b.Get(64) {
		t.Fatal("clear wrong")
	}
	b.SetRange(10, 20)
	if b.CountRange(10, 20) != 10 {
		t.Fatal("SetRange/CountRange wrong")
	}
	b.ClearRange(10, 15)
	if b.CountRange(10, 20) != 5 {
		t.Fatal("ClearRange wrong")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset wrong")
	}
	if b.SizeBytes() != 24 { // ceil(130/64)*8
		t.Fatalf("SizeBytes = %d", b.SizeBytes())
	}
}

// TestBitmapRangeOpsMatchBitLoops checks the word-masked range operations
// against their bit-by-bit definitions on every [lo, hi) of a bitmap that
// ends mid-word: ranges inside one word, across word edges, whole words and
// empty ones.
func TestBitmapRangeOpsMatchBitLoops(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(7))
	fill := func() (*Bitmap, []bool) {
		b, ref := NewBitmap(n), make([]bool, n)
		for i := range ref {
			if rng.Intn(2) == 0 {
				b.Set(i)
				ref[i] = true
			}
		}
		return b, ref
	}
	same := func(b *Bitmap, ref []bool) bool {
		for i, want := range ref {
			if b.Get(i) != want {
				return false
			}
		}
		return true
	}
	for lo := 0; lo <= n; lo++ {
		for hi := lo - 1; hi <= n; hi++ { // hi = lo-1 and hi = lo: empty ranges
			if hi < 0 {
				continue
			}
			b, ref := fill()
			count := 0
			for i := lo; i < hi; i++ {
				if ref[i] {
					count++
				}
			}
			if got := b.CountRange(lo, hi); got != count {
				t.Fatalf("CountRange(%d, %d) = %d, want %d", lo, hi, got, count)
			}
			if got := b.AnyRange(lo, hi); got != (count > 0) {
				t.Fatalf("AnyRange(%d, %d) = %v, want %v", lo, hi, got, count > 0)
			}
			b.SetRange(lo, hi)
			for i := lo; i < hi; i++ {
				ref[i] = true
			}
			if !same(b, ref) {
				t.Fatalf("SetRange(%d, %d) differs from the bit loop", lo, hi)
			}
			b, ref = fill()
			b.ClearRange(lo, hi)
			for i := lo; i < hi; i++ {
				ref[i] = false
			}
			if !same(b, ref) {
				t.Fatalf("ClearRange(%d, %d) differs from the bit loop", lo, hi)
			}
			// Set bits only outside the range, then one at either end.
			for _, i := range []int{-1, lo, hi - 1} {
				if i >= lo {
					b.Set(i)
				}
				if got, want := b.AnyRange(lo, hi), i >= lo && lo < hi; got != want {
					t.Fatalf("AnyRange(%d, %d) with bit %d set inside = %v, want %v", lo, hi, i, got, want)
				}
				if i >= lo {
					b.Clear(i)
				}
			}
		}
	}
}

// TestSequentialInitZeroAlloc pins the per-write model update at zero
// allocations on a model whose piece array is full: the splice may only
// succeed by trimming or pruning, and must not allocate either way.
func TestSequentialInitZeroAlloc(t *testing.T) {
	m := NewInPlaceModel(512, DefaultMaxPieces)
	for i := 0; i < DefaultMaxPieces; i++ {
		if !m.SequentialInit(i*64, 32, int64(1000*i)) {
			t.Fatal("setup: SequentialInit refused")
		}
	}
	if m.NumPieces() != DefaultMaxPieces {
		t.Fatalf("setup left %d pieces, want %d", m.NumPieces(), DefaultMaxPieces)
	}
	i, installed := 0, 0
	if a := testing.AllocsPerRun(2000, func() {
		off := (i * 37) & 511
		m.Invalidate(off)
		if m.SequentialInit(off, 1, int64(i)) {
			installed++
		}
		i++
	}); a != 0 {
		t.Fatalf("SequentialInit(off, 1, v) allocates %.0f times per write", a)
	}
	if installed == 0 || installed == i {
		t.Fatalf("%d of %d updates installed: want both outcomes exercised", installed, i)
	}
}

// The methods below are the per-write splice and the GC-time training as
// they were before pruneDead's liveness test became Bitmap.AnyRange and
// TrainFull's fit became allocation-free — insertPiece, pruneDead and
// TrainFull moved here with their bodies unchanged (CountRange > 0,
// FitExactCapped), plus SequentialInit calling the moved insertPiece: the
// reference the live model is pinned against.

func (m *InPlaceModel) trainFullReference(base int64, vppns []int64) int {
	if len(vppns) != m.span {
		panic("learned: TrainFull length mismatch")
	}
	// One paper-sized translation page of points fits the stack frame; a
	// wider model's append moves them to the heap.
	var frame [512]Point
	pts := frame[:0]
	for off, v := range vppns {
		if v >= 0 {
			pts = append(pts, Point{X: int64(off), Y: v - base})
		}
	}
	m.bm.Reset()
	m.pieces = m.pieces[:0]
	if len(pts) == 0 {
		m.base = unsetBase
		return 0
	}
	m.base = base
	kept, _ := FitExactCapped(pts, m.maxPieces)
	m.pieces = append(m.pieces, kept...)
	// Evaluate: only offsets the kept pieces predict exactly get a 1 bit
	// (§III-E2 step ④).
	exact := 0
	for _, pt := range pts {
		p, ok := m.pieceFor(pt.X)
		if ok && p.Predict(pt.X) == pt.Y {
			m.bm.Set(int(pt.X))
			exact++
		}
	}
	return exact
}

func (m *InPlaceModel) sequentialInitReference(startOff, n int, firstVPPN int64) bool {
	if n <= 0 || startOff < 0 || startOff+n > m.span {
		return false
	}
	if old := m.bm.CountRange(startOff, startOff+n); old >= n {
		return false
	}
	if m.base == unsetBase {
		m.base = firstVPPN
	}
	s, e := int64(startOff), int64(startOff+n)
	np := Piece{Off: s, K: 1, B: float64(firstVPPN-m.base) - float64(s)}
	if !m.insertPieceReference(np, s, e) {
		return false
	}
	m.bm.SetRange(startOff, startOff+n)
	return true
}

func (m *InPlaceModel) insertPieceReference(np Piece, s, e int64) bool {
	var frame [DefaultMaxPieces + 2]Piece
	out := frame[:0]
	inserted := false
	for i, p := range m.pieces {
		pEnd := int64(m.span)
		if i+1 < len(m.pieces) {
			pEnd = m.pieces[i+1].Off
		}
		if pEnd <= s || p.Off >= e {
			// Untouched piece; emit new piece before any later piece.
			if !inserted && p.Off >= e {
				out = append(out, np)
				inserted = true
			}
			out = append(out, p)
			continue
		}
		// Overlap: keep the head [p.Off, s) under the old parameters.
		if p.Off < s {
			out = append(out, p)
		}
		if !inserted {
			out = append(out, np)
			inserted = true
		}
		// Keep the tail [e, pEnd) under the old parameters: same K/B with a
		// bumped Off, exactly the paper's off adjustment.
		if pEnd > e {
			out = append(out, Piece{Off: e, K: p.K, B: p.B})
		}
	}
	if !inserted {
		out = append(out, np)
	}
	out = m.pruneDeadReference(out, s, e)
	if len(out) > m.maxPieces {
		return false
	}
	m.pieces = append(m.pieces[:0], out...)
	return true
}

func (m *InPlaceModel) pruneDeadReference(pieces []Piece, s, e int64) []Piece {
	out := pieces[:0]
	for i, p := range pieces {
		pEnd := int64(m.span)
		if i+1 < len(pieces) {
			pEnd = pieces[i+1].Off
		}
		if p.Off <= s && s < pEnd || p.Off < e && e <= pEnd || (s <= p.Off && pEnd <= e) {
			// Overlaps the about-to-be-set range: live.
			out = append(out, p)
			continue
		}
		if m.bm.CountRange(int(p.Off), int(pEnd)) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// TestModelMatchesReference drives a model and its reference through the
// same seeded sequences — single and ranged invalidations, sequential
// initializations of 1 to 64 offsets (refusals on a full piece array
// included) and GC-time retraining of fragmented layouts, some fitting more
// pieces than the array holds — and requires equal results and equal
// exported state after every step, at three piece capacities.
func TestModelMatchesReference(t *testing.T) {
	const span = 512
	for _, maxPieces := range []int{2, 4, DefaultMaxPieces} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, ref := NewInPlaceModel(span, maxPieces), NewInPlaceModel(span, maxPieces)
			vppns := make([]int64, span)
			next := int64(1000)
			var installed, refused, capped int
			for step := 0; step < 3000; step++ {
				op := "Invalidate"
				switch k := rng.Intn(100); {
				case k < 35:
					off := rng.Intn(span)
					m.Invalidate(off)
					ref.Invalidate(off)
				case k < 45:
					off, n := rng.Intn(span), 1+rng.Intn(64)
					for i := off; i < off+n && i < span; i++ {
						m.Invalidate(i)
						ref.Invalidate(i)
					}
				case k < 98:
					op = "SequentialInit"
					n := 1 + rng.Intn(64)
					if rng.Intn(2) == 0 {
						n = 1 // the random-write case
					}
					off := rng.Intn(span - n + 1)
					// The write path clears the range first; left set, an
					// accurate range refuses the update.
					for i := off; i < off+n && rng.Intn(4) > 0; i++ {
						m.Invalidate(i)
						ref.Invalidate(i)
					}
					got, want := m.SequentialInit(off, n, next), ref.sequentialInitReference(off, n, next)
					if got != want {
						t.Fatalf("maxPieces %d seed %d step %d: SequentialInit(%d, %d) = %v, reference %v", maxPieces, seed, step, off, n, got, want)
					}
					if got {
						installed++
					} else {
						refused++
					}
					next += int64(n + rng.Intn(8))
				default:
					op = "TrainFull"
					// Runs of consecutive VPPNs broken by holes and jumps: the
					// more breaks, the more pieces the fit wants.
					breaks := 1 + rng.Intn(16)
					base := next
					for i := range vppns {
						switch {
						case rng.Intn(span) < breaks:
							next += int64(1 + rng.Intn(50))
							vppns[i] = -1
						case rng.Intn(span) < breaks:
							next += int64(1 + rng.Intn(50))
							vppns[i] = next
						default:
							vppns[i] = next
						}
						next++
					}
					var pts []Point
					for off, v := range vppns {
						if v >= 0 {
							pts = append(pts, Point{X: int64(off), Y: v - base})
						}
					}
					if len(FitExact(pts)) > maxPieces {
						capped++
					}
					if got, want := m.TrainFull(base, vppns), ref.trainFullReference(base, vppns); got != want {
						t.Fatalf("maxPieces %d seed %d step %d: TrainFull = %d, reference %d", maxPieces, seed, step, got, want)
					}
				}
				if got, want := m.ExportState(), ref.ExportState(); !reflect.DeepEqual(got, want) {
					t.Fatalf("maxPieces %d seed %d step %d: after %s\n got %+v\nwant %+v", maxPieces, seed, step, op, got, want)
				}
			}
			if installed == 0 || refused == 0 || capped == 0 {
				t.Fatalf("maxPieces %d seed %d: %d installs, %d refusals, %d capped fits: want every outcome", maxPieces, seed, installed, refused, capped)
			}
		}
	}
}
