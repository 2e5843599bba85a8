package stats

import (
	"testing"

	"learnedftl/internal/nand"
)

// TestSeriesBasics: append/at/len/sum/appendTo across chunk boundaries.
func TestSeriesBasics(t *testing.T) {
	var s series
	n := seriesChunkSize*2 + 17 // spans three chunks
	var want int64
	for i := 0; i < n; i++ {
		s.append(int64(i))
		want += int64(i)
	}
	if s.len() != n {
		t.Fatalf("len = %d, want %d", s.len(), n)
	}
	if got := s.sum(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	for _, i := range []int{0, 1, seriesChunkSize - 1, seriesChunkSize, n - 1} {
		if got := s.at(i); got != int64(i) {
			t.Fatalf("at(%d) = %d", i, got)
		}
	}
	out := s.appendTo(nil)
	if len(out) != n || out[0] != 0 || out[n-1] != int64(n-1) || out[seriesChunkSize] != seriesChunkSize {
		t.Fatalf("appendTo: len=%d out[0]=%d out[last]=%d", len(out), out[0], out[n-1])
	}
}

// TestSeriesResetKeepsChunks: reset must retain capacity so the next fill
// of the same size allocates nothing — the arena property the warm-up and
// measured phases rely on.
func TestSeriesResetKeepsChunks(t *testing.T) {
	var s series
	for i := 0; i < seriesChunkSize*3; i++ {
		s.append(1)
	}
	chunks := len(s.chunks)
	s.reset()
	if s.len() != 0 {
		t.Fatalf("len after reset = %d", s.len())
	}
	if len(s.chunks) != chunks {
		t.Fatalf("reset dropped chunks: %d -> %d", chunks, len(s.chunks))
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.reset()
		for i := 0; i < seriesChunkSize*3; i++ {
			s.append(1)
		}
	})
	if allocs != 0 {
		t.Fatalf("refill after reset allocated %.1f times per run", allocs)
	}
}

// TestCollectorRecordZeroAlloc is the arena guarantee at the collector
// level: once warmed past its high-water mark and Reset (exactly the
// warm-up → measure cycle every experiment runs), recording latencies
// allocates nothing per request.
func TestCollectorRecordZeroAlloc(t *testing.T) {
	c := NewCollector()
	const n = 4 * seriesChunkSize
	for i := 0; i < n; i++ {
		c.RecordRead(100, 1)
		c.RecordWrite(200, 1)
	}
	c.Reset()
	i := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		c.RecordRead(nand.Time(100+i), 1)
		c.RecordWrite(nand.Time(200+i), 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state record allocated %.1f times per request", allocs)
	}
}
