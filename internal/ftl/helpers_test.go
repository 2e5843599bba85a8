package ftl

import (
	"fmt"

	"learnedftl/internal/nand"
)

// FreeBlocksOnChip returns the free-block count of one chip.
func (b *BlockMan) FreeBlocksOnChip(chip int) int { return len(b.free[chip]) }

// mustProgram wraps Flash.Program; allocation and programming are paired in
// this package, so a failure is an internal invariant violation.
func (b *Base) mustProgram(p nand.PPN, oob nand.OOB, after nand.Time, kind nand.OpKind) nand.Time {
	done, err := b.Fl.Program(p, oob, after, kind)
	if err != nil {
		panic(fmt.Sprintf("ftl: %v", err))
	}
	return done
}
