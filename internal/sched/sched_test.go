package sched

import (
	"math/rand"
	"strconv"
	"testing"

	"learnedftl/internal/nand"
)

// allAt returns a key function placing every entrant at t.
func allAt(t nand.Time) func(int) nand.Time { return func(int) nand.Time { return t } }

// TestSchedOrdering unit-tests the scheduler's (time, index) ordering.
func TestSchedOrdering(t *testing.T) {
	sc := New(4, allAt(100))
	// All equal: sources must come up in index order.
	for want := 0; want < 4; want++ {
		th, at := sc.Min()
		if th != want || at != 100 {
			t.Fatalf("min = (%d,%d), want (%d,100)", th, at, want)
		}
		sc.Advance(nand.Time(200 + want))
	}
	// Distinct times: sources come up in time order.
	for want := 0; want < 4; want++ {
		th, at := sc.Min()
		if th != want || at != nand.Time(200+want) {
			t.Fatalf("min = (%d,%d), want (%d,%d)", th, at, want, 200+want)
		}
		sc.Retire()
	}
	if sc.Len() != 0 {
		t.Fatalf("len = %d after draining", sc.Len())
	}
}

// linearSched is the reference the tournament tree is checked against: the
// engine's original scheduler — scan every live source for the earliest
// time, the lowest index winning ties — over explicit keys.
type linearSched struct {
	at    []nand.Time
	alive []bool
}

func (l *linearSched) len() int {
	n := 0
	for _, a := range l.alive {
		if a {
			n++
		}
	}
	return n
}

func (l *linearSched) min() (int, nand.Time) {
	th := -1
	for i := range l.at {
		if l.alive[i] && (th == -1 || l.at[i] < l.at[th]) {
			th = i
		}
	}
	return th, l.at[th]
}

// runnerUp returns the key of the earliest source other than the minimum.
func (l *linearSched) runnerUp() (nand.Time, bool) {
	w, _ := l.min()
	l.alive[w] = false
	defer func() { l.alive[w] = true }()
	if l.len() == 0 {
		return 0, false
	}
	_, at := l.min()
	return at, true
}

// TestSchedMatchesLinearScan drives the tree and the linear scan through
// the same randomized advance/retire sequence. Keys move in small steps so
// equal times are common; every fourth advance lands exactly on the
// runner-up's key (the source must then yield iff its index is higher);
// sources retire mid-run. In the "joining" runs each source is first moved
// to its own time or retired; in the "keyed" runs the tree is built over
// per-entrant times drawn from a few values, and a Reset part-way puts
// every source, retired ones too, back at fresh times. The non-power-of-two
// counts put Never-eventing padding leaves beside live ones.
func TestSchedMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 32, 257} {
		for _, mode := range []string{"uniform", "joining", "keyed"} {
			rng := rand.New(rand.NewSource(int64(n)*31 + 7))
			ref := &linearSched{at: make([]nand.Time, n), alive: make([]bool, n)}
			for i := range ref.at {
				ref.at[i], ref.alive[i] = 1000, true
				switch mode {
				case "joining":
					ref.at[i] = nand.Time(1000 + rng.Intn(4))
					ref.alive[i] = rng.Intn(5) != 0
				case "keyed":
					ref.at[i] = nand.Time(1000 + rng.Intn(4))
				}
			}
			var sc *Tree
			resets := 0
			switch mode {
			case "uniform":
				sc = New(n, allAt(1000))
			case "joining":
				// Below every joining time: sources come up in index order.
				sc = New(n, allAt(0))
				for i := range ref.at {
					if w, _ := sc.Min(); w != i {
						t.Fatalf("n=%d: source %d came up while joining %d", n, w, i)
					}
					if ref.alive[i] {
						sc.Advance(ref.at[i])
					} else {
						sc.Retire()
					}
				}
			case "keyed":
				sc = New(n, func(i int) nand.Time { return ref.at[i] })
			}
			for step := 0; ref.len() > 0; step++ {
				if mode == "keyed" && step == 10*n {
					_, now := ref.min()
					for i := range ref.at {
						ref.at[i], ref.alive[i] = now+nand.Time(rng.Intn(4)), true
					}
					sc.Reset(func(i int) nand.Time { return ref.at[i] })
					resets++
				}
				if sc.Len() != ref.len() {
					t.Fatalf("n=%d %s step %d: len %d, want %d", n, mode, step, sc.Len(), ref.len())
				}
				w, at := sc.Min()
				rw, rat := ref.min()
				if w != rw || at != rat {
					t.Fatalf("n=%d %s step %d: min (%d,%d), want (%d,%d)", n, mode, step, w, at, rw, rat)
				}
				if step > 20*n || rng.Intn(8*n) == 0 {
					sc.Retire()
					ref.alive[rw] = false
					continue
				}
				next := at + nand.Time(rng.Intn(3))
				if ru, ok := ref.runnerUp(); ok && step%4 == 0 {
					next = ru
				}
				sc.Advance(next)
				ref.at[rw] = next
			}
			if sc.Len() != 0 {
				t.Fatalf("n=%d %s: len %d after the reference drained", n, mode, sc.Len())
			}
			if mode == "keyed" && n >= 32 && resets == 0 {
				t.Fatalf("n=%d: the run drained before its Reset", n)
			}
		}
	}
}

// TestSchedPaddingLosesTies: three sources sit beside one padding leaf whose
// key is Never. A live source one tick short of Never still comes first,
// and ties between live sources at that key still break by index.
func TestSchedPaddingLosesTies(t *testing.T) {
	sc := New(3, allAt(5))
	for i := 0; i < 3; i++ {
		sc.Advance(Never - 1)
	}
	for want := 0; want < 3; want++ {
		if th, at := sc.Min(); th != want || at != Never-1 {
			t.Fatalf("min = (%d,%d), want (%d,%d)", th, at, want, Never-1)
		}
		sc.Retire()
	}
	if sc.Len() != 0 {
		t.Fatalf("len = %d after draining", sc.Len())
	}
}

// TestSchedAdvanceZeroAlloc pins the per-event scheduling cost at no
// allocation.
func TestSchedAdvanceZeroAlloc(t *testing.T) {
	sc := New(257, allAt(0))
	at := nand.Time(0)
	if a := testing.AllocsPerRun(1000, func() {
		at += 3
		sc.Advance(at)
	}); a != 0 {
		t.Fatalf("advance allocates %.1f times per call", a)
	}
}

// BenchmarkSchedAdvance is one scheduling step of a closed loop — read the
// minimum, re-key it a little later — at the engine's three shapes: the
// single-generator warm-up (no internal node), FIO's 32 threads, and a
// non-power-of-two count with padding leaves.
func BenchmarkSchedAdvance(b *testing.B) {
	for _, n := range []int{1, 32, 257} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			sc := New(n, allAt(0))
			rng := rand.New(rand.NewSource(1))
			steps := make([]nand.Time, 1024)
			for i := range steps {
				steps[i] = nand.Time(40_000 + rng.Intn(20_000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, at := sc.Min()
				sc.Advance(at + steps[i&1023])
			}
		})
	}
}
