package core

import (
	"testing"

	"learnedftl/internal/persist"
)

// TestLoadStateRejectsOversizedCounts: a model's piece count and bitmap word
// count size allocations, so a snapshot claiming more than the stream can
// back is an error, not a makeslice panic. The streams start with a fresh
// device's own map-state and cache sections.
func TestLoadStateRejectsOversizedCounts(t *testing.T) {
	src := newFTL(t)
	tails := map[string]func(e *persist.Encoder){
		"piece count": func(e *persist.Encoder) {
			e.U64(1 << 62)
		},
		"bitmap word count": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1 << 62)
		},
	}
	for name, tail := range tails {
		e := persist.NewEncoder()
		src.SaveMapState(e)
		src.Save(e)
		e.U64(uint64(len(src.models)))
		e.I64(0) // first model's base
		tail(e)
		if err := newFTL(t).LoadState(persist.NewDecoder(e.Data())); err == nil {
			t.Errorf("%s past the stream: LoadState accepted it", name)
		}
	}
}
