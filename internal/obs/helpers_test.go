package obs

// InGC reports whether a GC window is open (per-op attribution inside a
// window is suppressed: the window itself carries the time).
func (t *Tracer) InGC() bool { return t.gcDepth > 0 }

// Requests returns the number of completed spans.
func (t *Tracer) Requests() int64 { return t.reads + t.writes }
