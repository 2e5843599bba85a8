package gc

import "learnedftl/internal/nand"

// VictimLinearScan is the frozen O(TotalBlocks) reference selection the
// incremental index is equivalence-tested against: ascending block
// enumeration, strict-greater comparison (lowest id wins ties), the same
// eligibility filter and age clamp. Do not optimize it — its whole value
// is being the obviously correct spec.
func (c *Controller) VictimLinearScan(now nand.Time) int {
	g := c.fl.Geometry()
	victim := -1
	var bestScore float64
	for blk := 0; blk < g.TotalBlocks(); blk++ {
		wp := c.fl.BlockWritePtr(blk)
		if wp == 0 || c.alloc.IsActive(blk) || c.fl.BlockBad(blk) {
			continue
		}
		v := c.fl.BlockValid(blk)
		if v >= wp {
			continue // nothing invalid to reclaim
		}
		// BlockLastMod is a program *completion* time and may sit past the
		// GC trigger time on another chip; clamp so age never goes
		// negative (a negative age would invert the age-weighted scores).
		age := now - c.fl.BlockLastMod(blk)
		if age < 0 {
			age = 0
		}
		s := c.pol.Score(Candidate{
			ID:       blk,
			Valid:    v,
			Invalid:  wp - v,
			Capacity: g.PagesPerBlock,
			Erases:   c.fl.BlockErases(blk),
			Age:      age,
		})
		if victim == -1 || s > bestScore {
			victim, bestScore = blk, s
		}
	}
	return victim
}
