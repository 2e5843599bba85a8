package sim

import "learnedftl/internal/ftl"

// RunOpen is RunOpenWith capped at maxRequests issued requests.
func RunOpen(f ftl.FTL, streams []Stream, maxRequests int64) Result {
	return RunOpenWith(f, streams, OpenOptions{MaxRequests: maxRequests})
}
