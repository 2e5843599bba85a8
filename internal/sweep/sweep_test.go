package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunFillsAllSlotsSerialAndParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		const n = 37
		results := make([]int, n)
		err := Run(workers, Tasks(n, func(i int) error {
			results[i] = i * i
			return nil
		}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("cell 3 failed")
	for _, workers := range []int{1, 4} {
		err := Run(workers, Tasks(10, func(i int) error {
			if i == 3 {
				return errA
			}
			if i == 7 {
				return fmt.Errorf("cell 7 failed")
			}
			return nil
		}))
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want cell 3's error", workers, err)
		}
	}
}

func TestRunExecutesEveryCellExactlyOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int32
	if err := Run(8, Tasks(n, func(i int) error {
		counts[i].Add(1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(4, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	if err := Run(workers, Tasks(50, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent cells, want <= %d", p, workers)
	}
}

func TestAutoPositive(t *testing.T) {
	if Auto() < 1 {
		t.Fatalf("Auto() = %d", Auto())
	}
}

func TestGridRowMajor(t *testing.T) {
	g := NewGrid(2, 3)
	if g.Cells() != 6 {
		t.Fatalf("cells = %d, want 6", g.Cells())
	}
	for i := 0; i < g.Cells(); i++ {
		if a, b := g.Coord(i, 0), g.Coord(i, 1); a != i/3 || b != i%3 {
			t.Fatalf("cell %d at (%d, %d), want (%d, %d)", i, a, b, i/3, i%3)
		}
	}
	if n := NewGrid().Cells(); n != 1 {
		t.Fatalf("axis-less grid has %d cells, want 1", n)
	}
	for _, dims := range [][]int{{0}, {4, 0, 2}, {3, -1}} {
		if n := NewGrid(dims...).Cells(); n != 0 {
			t.Errorf("grid %v has %d cells, want 0", dims, n)
		}
	}
}
