package fleet

import "learnedftl/internal/ftl"

// Alive reports whether device d is still serving requests.
func (a *Array) Alive(d int) bool { return a.alive[d] }

// RebuildPages counts pages of rebuild traffic written to targets.
func (a *Array) RebuildPages() int64 { return a.rebuildPages }

// Devices returns the backing devices in index order.
func (a *Array) Devices() []ftl.FTL { return a.devs }
