package stats

// series is a chunk-backed append-only int64 store: the arena behind the
// collector's per-request latency records. Chunks are fixed-size, so growth
// never copies recorded values and an append after warm-up touches no
// allocator; reset keeps the chunks, so the warm-up/measure cycle
// (Collector.Reset between phases) and repeated open-loop runs record at
// zero allocations per request in steady state.
type series struct {
	chunks [][]int64
	n      int
}

const (
	seriesChunkShift = 13
	seriesChunkSize  = 1 << seriesChunkShift
	seriesChunkMask  = seriesChunkSize - 1
)

// append records one value.
func (s *series) append(v int64) {
	if c := s.n >> seriesChunkShift; c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]int64, seriesChunkSize))
	}
	s.chunks[s.n>>seriesChunkShift][s.n&seriesChunkMask] = v
	s.n++
}

// at returns slot i.
func (s *series) at(i int) int64 { return s.chunks[i>>seriesChunkShift][i&seriesChunkMask] }

// len returns the number of recorded values.
func (s *series) len() int { return s.n }

// sum returns the total of all recorded values.
func (s *series) sum() int64 {
	var t int64
	for i := 0; i < s.n; i += seriesChunkSize {
		c := s.chunks[i>>seriesChunkShift]
		hi := s.n - i
		if hi > seriesChunkSize {
			hi = seriesChunkSize
		}
		for _, v := range c[:hi] {
			t += v
		}
	}
	return t
}

// appendTo copies the recorded values onto dst and returns it.
func (s *series) appendTo(dst []int64) []int64 {
	for i := 0; i < s.n; i += seriesChunkSize {
		c := s.chunks[i>>seriesChunkShift]
		hi := s.n - i
		if hi > seriesChunkSize {
			hi = seriesChunkSize
		}
		dst = append(dst, c[:hi]...)
	}
	return dst
}

// extend appends o's values: how DefineStreams retires an earlier run's
// tenant samples, off the record path.
func (s *series) extend(o *series) {
	for i := 0; i < o.n; i++ {
		s.append(o.at(i))
	}
}

// reset empties the series but keeps its chunks — the arena reuse that
// makes steady-state recording allocation-free.
func (s *series) reset() { s.n = 0 }
