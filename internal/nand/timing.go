package nand

// Time is a virtual timestamp in nanoseconds since simulation start.
// The simulator never consults the wall clock; all latencies derive from
// the flash timing parameters below and per-chip serialization.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// Timing holds the per-operation latencies of the NAND dies. Defaults match
// the paper's FEMU configuration (§IV-A): 40µs read, 200µs program, 2ms
// erase.
type Timing struct {
	ReadLatency    Time // NAND array read + transfer
	ProgramLatency Time // program one page
	EraseLatency   Time // erase one block
	// RetryLatency is the cost of one ECC read-retry step: a re-sense of
	// the page at a shifted reference voltage. Each retry step the fault
	// model requests extends the read's chip occupancy by this much, so
	// retries flow into service time and the open-loop tail decomposition
	// like any other NAND latency.
	RetryLatency Time
}

// DefaultTiming returns the paper's FEMU NAND latencies.
func DefaultTiming() Timing {
	return Timing{
		ReadLatency:    40 * Microsecond,
		ProgramLatency: 200 * Microsecond,
		EraseLatency:   2 * Millisecond,
		RetryLatency:   40 * Microsecond,
	}
}

// Energy holds per-operation energy costs in nanojoules. The absolute values
// follow the NANDFlashSim-style model the paper references for Fig. 22; only
// the ratios matter for the reproduced comparison. The defaults approximate
// a 2-plane MLC die: a program costs ~6× a read and an erase ~30× a read.
type Energy struct {
	ReadEnergy    int64 // nJ per page read
	ProgramEnergy int64 // nJ per page program
	EraseEnergy   int64 // nJ per block erase
}

// DefaultEnergy returns the default per-op energy model.
func DefaultEnergy() Energy {
	return Energy{
		ReadEnergy:    25_000,  // 25 µJ
		ProgramEnergy: 150_000, // 150 µJ
		EraseEnergy:   750_000, // 750 µJ
	}
}

// OpKind classifies a flash operation by what issued it. Every flash
// operation carries a kind so that experiments can split read counts into
// host data reads versus address-translation reads (the double-read story)
// and write counts into host writes versus GC relocation and translation-
// page maintenance (the write-amplification story).
type OpKind uint8

const (
	// OpHostData is a read/program carrying host data.
	OpHostData OpKind = iota
	// OpTranslation is a read/program of a translation (mapping) page.
	OpTranslation
	// OpGC is a read/program that relocates data during garbage collection.
	OpGC
	// OpMount is a read issued by the mount-time OOB recovery scan.
	OpMount
	// opKinds is the number of kinds; keep last.
	opKinds
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpHostData:
		return "host"
	case OpTranslation:
		return "translation"
	case OpGC:
		return "gc"
	case OpMount:
		return "mount"
	default:
		return "unknown"
	}
}

// OpCounters tallies flash operations split by OpKind.
type OpCounters struct {
	Reads    [opKinds]int64
	Programs [opKinds]int64
	Erases   int64
}

// Add adds o's counts into c. Fleet aggregation sums per-device counters
// with it; the sum is order-independent, so aggregated reports are
// identical for any device-iteration order.
func (c *OpCounters) Add(o OpCounters) {
	for k := range c.Reads {
		c.Reads[k] += o.Reads[k]
		c.Programs[k] += o.Programs[k]
	}
	c.Erases += o.Erases
}

// subtract removes o's counts from c.
func (c *OpCounters) subtract(o OpCounters) {
	for k := range c.Reads {
		c.Reads[k] -= o.Reads[k]
		c.Programs[k] -= o.Programs[k]
	}
	c.Erases -= o.Erases
}

// TotalReads returns reads across all kinds.
func (c *OpCounters) TotalReads() int64 {
	var t int64
	for _, v := range c.Reads {
		t += v
	}
	return t
}

// TotalPrograms returns programs across all kinds.
func (c *OpCounters) TotalPrograms() int64 {
	var t int64
	for _, v := range c.Programs {
		t += v
	}
	return t
}

// EnergyNJ returns the total energy in nanojoules under model e.
func (c *OpCounters) EnergyNJ(e Energy) int64 {
	return c.TotalReads()*e.ReadEnergy +
		c.TotalPrograms()*e.ProgramEnergy +
		c.Erases*e.EraseEnergy
}
