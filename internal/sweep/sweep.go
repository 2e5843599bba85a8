// Package sweep fans the independent cells of an experiment across a
// bounded worker pool. A cell is one self-contained unit of work — in this
// repo, one (figure × scheme × workload) measurement that constructs its own
// device, runs its own deterministically-seeded workload and writes its
// result into a preallocated slot owned by its index.
//
// Determinism is the design invariant: because every cell is hermetic (no
// shared mutable state, per-cell RNG seeds) and assembly reads slots in
// index order, the output of a parallel run is byte-identical to a serial
// run of the same cells. Run(1, cells) executes serially in index order and
// is the reference the parallel path must match.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one independent unit of work. It must not share mutable state
// with any other cell; results are communicated by writing to a slot the
// cell exclusively owns (typically results[i] for cell i).
type Cell func() error

// Auto returns the worker count used for parallel sweeps: GOMAXPROCS, the
// number of OS threads the Go scheduler will actually run concurrently.
func Auto() int { return runtime.GOMAXPROCS(0) }

// Run executes all cells and returns the error of the lowest-indexed
// failing cell (deterministic regardless of scheduling), or nil.
//
// workers <= 1 runs the cells serially in index order on the calling
// goroutine. workers > 1 fans them across min(workers, len(cells))
// goroutines pulling indices from a shared counter; all cells are executed
// even when some fail, so result slots are filled identically to a serial
// run.
func Run(workers int, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		var first error
		for _, c := range cells {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				errs[i] = cells[i]()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Tasks adapts an indexed cell function to a Cell slice, for the common
// "n homogeneous cells" shape.
func Tasks(n int, cell func(i int) error) []Cell {
	cs := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cs[i] = func() error { return cell(i) }
	}
	return cs
}

// Grid indexes a multi-axis cell lattice row-major (the last axis varies
// fastest), replacing the hand-rolled div/mod chains of multi-dimensional
// sweeps; the root package's experiment runner decodes every experiment's
// cells through it. A Grid is pure index arithmetic: combine it with
// Tasks(g.Cells(), ...) and g.Coord inside the cell.
type Grid struct{ dims []int }

// NewGrid returns a lattice over the given axis sizes. An axis of size < 1
// empties the lattice, as an empty range empties a nested loop.
func NewGrid(dims ...int) Grid {
	ds := make([]int, len(dims))
	for i, d := range dims {
		ds[i] = max(d, 0)
	}
	return Grid{dims: ds}
}

// Cells is the total cell count (1 for an axis-less grid).
func (g Grid) Cells() int {
	n := 1
	for _, d := range g.dims {
		n *= d
	}
	return n
}

// Coord returns cell i's index along the given axis.
func (g Grid) Coord(i, axis int) int {
	for a := len(g.dims) - 1; a > axis; a-- {
		i /= g.dims[a]
	}
	return i % g.dims[axis]
}
