package sim

import (
	"fmt"
	"slices"
	"testing"

	"learnedftl/internal/fault"
	"learnedftl/internal/ftl"
)

// TestShardedMatchesSequential pins the RunSharded shim to Run: the same
// Result, latency records and flash counters at workers 1, 2 and 8, with
// and without a request cap, with and without a fault model attached — and
// never a fallback, since there is no other engine left to fall back from.
func TestShardedMatchesSequential(t *testing.T) {
	faulty := testConfig()
	faulty.Fault = fault.Default()
	faulty.Fault.Enabled = true
	for _, cfg := range []ftl.Config{testConfig(), faulty} {
		lp := cfg.LogicalPages()
		for _, maxReq := range []int64{0, 123} {
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("fault=%v cap=%d workers=%d", cfg.Fault.Enabled, maxReq, workers)
				fa, err := ftl.NewIdeal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fb, err := ftl.NewIdeal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ra := Run(fa, mixedGens(16, 60, lp, 99), maxReq)
				rb, st := RunSharded(fb, mixedGens(16, 60, lp, 99), maxReq, workers)
				if st.Fallback != "" {
					t.Fatalf("%s: fell back: %s", name, st.Fallback)
				}
				if ra != rb {
					t.Fatalf("%s: result %+v != Run's %+v", name, rb, ra)
				}
				readsA, writesA := latencies(fa)
				readsB, writesB := latencies(fb)
				if !slices.Equal(readsA, readsB) || !slices.Equal(writesA, writesB) {
					t.Fatalf("%s: latency records differ from Run's", name)
				}
				if ca, cb := fa.Flash().Counters(), fb.Flash().Counters(); ca != cb {
					t.Fatalf("%s: flash counters %+v != %+v", name, cb, ca)
				}
			}
		}
	}
}

// TestShardedMaxRequestsCap: the request cap cuts a RunSharded run at the
// same boundary as Run, at every worker count.
func TestShardedMaxRequestsCap(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		lp := cfg.LogicalPages()
		fa, _ := ftl.NewIdeal(cfg)
		fb, _ := ftl.NewIdeal(cfg)
		ra := Run(fa, mixedGens(8, 100, lp, 5), 123)
		rb, _ := RunSharded(fb, mixedGens(8, 100, lp, 5), 123, workers)
		if ra != rb {
			t.Fatalf("workers=%d: capped result %+v != Run's %+v", workers, rb, ra)
		}
		if rb.Requests != 123 {
			t.Fatalf("workers=%d: capped run served %d requests, want 123", workers, rb.Requests)
		}
	}
}
