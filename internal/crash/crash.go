// Package crash is the deterministic power-loss injection and
// recovery-verification subsystem. A Plan arms the flash array to cut
// power at the k-th flash operation (or at a virtual time); the injection
// harness drives a workload until the cut fires — unwinding the engine
// and every DRAM structure with it, exactly as a real power loss forgets
// DRAM — then power-cycles the device, runs the scheme's RecoverFromCrash
// mount scan, and verifies the recovery invariants against a durability
// oracle of host-acknowledged requests:
//
//  1. Acked durability — every acknowledged write's LPN resolves to a
//     valid page holding its key, and every acknowledged trim stays
//     unmapped (writes are durable at program completion; torn pages are
//     never acked). Schemes acking from a volatile write buffer (LeaFTL)
//     declare the buffered LPNs, which are exempt: the host was told its
//     write may sit in DRAM.
//  2. Mapping uniqueness — at most one valid flash page per LPN, and the
//     rebuilt L2P is a bijection with the valid data pages.
//  3. GTD consistency — the rebuilt GTD is a bijection with the valid
//     translation pages.
//  4. Allocator consistency — the scheme's allocator view (BlockMan free
//     stacks and active blocks, or LearnedFTL's group/row table and
//     translation pool) matches the flash array's write pointers and
//     bad-block list (the schemes' AllocInvariants methods).
//
// The campaign (RunCampaign) enumerates cut ordinals densely through a
// write+GC-heavy window — every point in both complete-program and
// torn-program variants — plus a seeded random fuzz mode, reporting
// recovery success, lost acked writes (must be zero), torn pages
// discarded and mount latency.
package crash

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// Plan describes one deterministic power cut. AtOp cuts on the AtOp-th
// flash operation issued after arming (1-based); AtTime cuts on the first
// operation issued at or after that virtual time; whichever trigger is
// reached first fires, and a zero value disables that trigger. Torn makes
// an in-flight program tear (page consumed, OOB unreadable) instead of
// completing before the cut.
type Plan struct {
	AtOp   int64
	AtTime nand.Time
	Torn   bool
}

// Device is what the harness drives: the device contract, whose crash
// recovery and verification views every scheme implements.
type Device = ftl.FTL

// VolatileBuffer is implemented by schemes that acknowledge writes from a
// volatile DRAM buffer before flash programming (LeaFTL). The listed LPNs
// were acked but are not durable by design; the verifier exempts them.
type VolatileBuffer interface {
	BufferedLPNs() []int64
}

// Outcome is one injected crash, recovered and verified.
type Outcome struct {
	// Fired reports whether the cut triggered before the window ended.
	// The remaining fields are meaningful only when it did.
	Fired bool
	// Cut is the recovered power-cut record (ordinal, op type, page, time).
	Cut nand.PowerCut
	// AckedWrites counts host write requests acknowledged before the cut.
	AckedWrites int64
	// Exempt counts acked-but-volatile LPNs excluded from the durability
	// check (a scheme's declared write buffer).
	Exempt int
	// MountLatency is the RecoverFromCrash scan duration.
	MountLatency nand.Time
	// Scan holds the recovery scan's counters (torn discarded, lost
	// mappings, bad blocks skipped).
	Scan persist.ScanStats
	// LostAcked counts acked writes whose LPN did not survive recovery —
	// the durability failures. Must be zero.
	LostAcked int64
	// Violations lists every other recovery-invariant breach.
	Violations []string
}

// OK reports a fully successful recovery: nothing acked was lost and every
// invariant holds.
func (o Outcome) OK() bool { return o.LostAcked == 0 && len(o.Violations) == 0 }
