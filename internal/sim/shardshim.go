package sim

import "learnedftl/internal/ftl"

// ShardStats is what is left of the sharded engine's report. Fallback is
// always empty: there is no other engine to fall back from.
type ShardStats struct{ Fallback string }

// RunSharded is Run. The per-chip sharded intra-run engine it used to
// select was deleted after it measured 0.35× of Run's speed at two workers;
// this shim exists only so the benchmark's fenced probe (bench/kernels.go)
// still builds, and ROADMAP item 1b deletes the probe and the shim together.
func RunSharded(f ftl.FTL, gens []Generator, maxRequests int64, workers int) (Result, ShardStats) {
	return Run(f, gens, maxRequests), ShardStats{}
}
