package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"learnedftl/internal/crash"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// Output checks. They run between the timed spans; every miss counts as a
// failed operation, and any failed operation fails the run.

// bufferedLPNs returns the LPNs a scheme holds in a volatile write buffer
// (LeaFTL): acknowledged but not on flash by design, so neither the
// mapping check nor the recovery check holds the device to them.
func bufferedLPNs(dev device) map[int64]struct{} {
	out := map[int64]struct{}{}
	if vb, ok := dev.(crash.VolatileBuffer); ok {
		for _, lpn := range vb.BufferedLPNs() {
			out[lpn] = struct{}{}
		}
	}
	return out
}

// checkL2P counts the LPNs that l2p does not map to a valid flash page
// carrying that LPN in its out-of-band area. The warm-up wrote every LPN,
// so an unmapped one is a miss too.
func checkL2P(fl *nand.Flash, l2p []nand.PPN, exempt map[int64]struct{}) (misses int64, first string) {
	for i, ppn := range l2p {
		lpn := int64(i)
		if _, ok := exempt[lpn]; ok {
			continue
		}
		var why string
		switch {
		case ppn == nand.InvalidPPN:
			why = "unmapped"
		case fl.State(ppn) != nand.PageValid:
			why = fmt.Sprintf("mapped to %v page %d", fl.State(ppn), ppn)
		case fl.PageOOB(ppn) != nand.OOB{Key: lpn}:
			why = fmt.Sprintf("mapped to page %d holding %+v", ppn, fl.PageOOB(ppn))
		default:
			continue
		}
		if misses++; first == "" {
			first = fmt.Sprintf("LPN %d %s", lpn, why)
		}
	}
	return misses, first
}

// checkDevice runs the per-repetition device checks: no latched failure,
// and every LPN readable where the map says it is. (AllocInvariants is
// not among them: it states what holds right after a mount scan — a live
// allocator may hold a full active block until the next write rotates it
// — so the recovery check in finish calls it.)
func checkDevice(dev device) (misses int64, first string) {
	if col := dev.Collector(); col.DeviceFailed {
		return 1, "device failed: " + col.FailReason
	}
	return checkL2P(dev.Flash(), dev.ShadowL2P(), bufferedLPNs(dev))
}

// phaseDigest hashes what a timed phase leaves behind that must not depend
// on the host: the engine result, the collector's counters and latency
// means, the flash operation counters and the final logical-to-physical
// map. Repetitions of one scheme must agree on it, and so must a traced
// and an untraced run of one seed. It is printed and compared between
// runs, never against a committed value: a model fix may change it.
//
// The percentiles of stats.Report are left out only because they cost a
// sort of every latency sample, which is paid once per scheme for the
// printed report instead of once per repetition; the latency means cover
// the same samples.
func phaseDigest(dev device, res sim.Result) string {
	h := sha256.New()
	c := dev.Collector()
	fmt.Fprintf(h, "%+v|%d %d %d %d|%d %d %d|%v|%d %d %d %d %d|%d %d %d %d|",
		res,
		c.HostReads, c.HostWrites, c.HostReadPages, c.HostWritePages,
		c.CMTHits, c.ModelHits, c.CMTLookups, c.ReadClasses,
		c.GCCount, c.BGGCCount, c.GCPagesMoved, c.GCBusyTime, c.ModelTrainings,
		c.MeanLatency(), c.MeanReadLatency(), c.MeanWriteLatency(), c.MeanQueueWait())
	fmt.Fprintf(h, "%+v|", dev.Flash().Counters())
	var buf [8]byte
	for _, ppn := range dev.ShadowL2P() {
		binary.LittleEndian.PutUint64(buf[:], uint64(ppn))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
