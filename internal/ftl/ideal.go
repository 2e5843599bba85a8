package ftl

import (
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// Ideal is the full page-level mapping FTL the paper uses as the performance
// upper bound ("ideal"): the entire mapping table resides in DRAM, so no
// read ever pays a translation flash access (a 100% hit ratio with infinite
// cache, §IV-B). Writes still pay allocation and GC like everyone else.
type Ideal struct {
	*Base
}

// NewIdeal builds the ideal FTL.
func NewIdeal(cfg Config) (*Ideal, error) {
	b, err := NewBase(cfg)
	if err != nil {
		return nil, err
	}
	i := &Ideal{Base: b}
	b.Hooks = NopHooks{}
	return i, nil
}

// Name implements FTL.
func (i *Ideal) Name() string { return "ideal" }

// ReadPages implements FTL: every page is a single flash read.
func (i *Ideal) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	end := now
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		i.Col.CMTLookups++
		i.Col.CMTHits++
		i.Col.RecordClass(stats.ReadSingle)
		if ppn := i.L2P.Get(l); ppn != nand.InvalidPPN {
			if done := i.Fl.Read(ppn, now, nand.OpHostData); done > end {
				end = done
			}
		}
	}
	return end
}

// WritePages implements FTL.
func (i *Ideal) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	end := now
	for k := 0; k < n; k++ {
		if _, done := i.HostProgram(lpn+int64(k), now); done > end {
			end = done
		}
	}
	return end
}
