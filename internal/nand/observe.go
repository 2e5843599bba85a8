package nand

// OpType distinguishes the three flash operation classes an observer sees.
type OpType uint8

const (
	// OpRead is a page read.
	OpRead OpType = iota
	// OpProgram is a page program (including grown-defect failed programs,
	// which occupy the chip all the same).
	OpProgram
	// OpErase is a block erase.
	OpErase
)

// FlashOp describes one completed flash operation: what ran, where, and its
// placement on the virtual timeline. Start−After is chip-contention wait;
// Done−Start the occupancy; Retry the read-retry ladder portion of it.
type FlashOp struct {
	Op    OpType
	Kind  OpKind
	PPN   PPN
	Chip  int32
	After Time // dependency-ready time (earliest legal start)
	Start Time // actual chip start
	Done  Time // completion
	Retry Time // retry-ladder time included in Done−Start (reads only)
}

// OpObserver receives every flash operation as it is scheduled. The
// observability layer (internal/obs) implements it to drive trace export
// and latency attribution. The callback runs on the flash hot paths and
// must not allocate; like BlockObserver, the array supports one observer
// and the last registration wins.
type OpObserver interface {
	ObserveOp(FlashOp)
}

// SetOpObserver registers the operation observer (nil to detach). Every
// read, program and erase reaches it once, from the one tail that also
// counts and clocks the operation, so the stream it sees is exactly what
// Counters tallies and the chip clocks hold. An operation a power cut
// kills before it completes (a read, an erase, a torn program) is neither
// counted nor observed. With no observer attached that tail pays one nil
// check.
func (f *Flash) SetOpObserver(o OpObserver) { f.opObs = o }
