package learned

import (
	"math/rand"
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
