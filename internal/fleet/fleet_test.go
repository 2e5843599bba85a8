package fleet

import (
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// testDevices builds n identical ideal-FTL devices on a tiny geometry.
// Ideal keeps the whole mapping in DRAM, so device behavior under the
// array is transparent: one flash read per mapped page, one program per
// written page.
func testDevices(t *testing.T, n int) []ftl.FTL {
	t.Helper()
	g := nand.Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 32
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.25
	cfg.GCLowWater = 3
	devs := make([]ftl.FTL, n)
	for i := range devs {
		f, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatalf("NewIdeal: %v", err)
		}
		devs[i] = f
	}
	return devs
}

// testArray assembles an array over n fresh test devices.
func testArray(t *testing.T, cfg Config, n int) *Array {
	t.Helper()
	devs := testDevices(t, n)
	lay, err := NewLayout(cfg, devs[0].Config().LogicalPages())
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	a, err := NewArray(lay, devs)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

// write issues one host write through the array and fails on a lost
// request.
func write(t *testing.T, a *Array, lpn int64, pages int, now nand.Time) nand.Time {
	t.Helper()
	before := a.LostRequests()
	done, _ := a.Issue(sim.Request{LPN: lpn, Pages: pages, Write: true}, now)
	if a.LostRequests() != before {
		t.Fatalf("write lpn=%d pages=%d lost", lpn, pages)
	}
	return done
}

// TestReplicateWriteFanOut pins the replication write path: an aligned
// one-unit write must program every replica's device.
func TestReplicateWriteFanOut(t *testing.T) {
	a := testArray(t, Config{Devices: 3, Policy: Replicate, Replicas: 2, Util: 0.5}, 3)
	s := stripe
	progs := func(d int) int64 {
		c := a.Devices()[d].Flash().Counters()
		return c.TotalPrograms()
	}
	write(t, a, 0, s, 0) // unit 0: copies on devices 0 and 1
	for d, want := range []int64{int64(s), int64(s), 0} {
		if got := progs(d); got != want {
			t.Errorf("device %d programmed %d pages, want %d", d, got, want)
		}
	}
}

// TestReplicateReadLeastBusy pins read routing: ties break to the lowest
// device index, and a busier replica loses the next read.
func TestReplicateReadLeastBusy(t *testing.T) {
	a := testArray(t, Config{Devices: 2, Policy: Replicate, Replicas: 2, Util: 0.5}, 2)
	s := stripe
	done := write(t, a, 0, s, 0) // populate unit 0 on both devices
	reads := func(d int) int64 {
		c := a.Devices()[d].Flash().Counters()
		return c.TotalReads()
	}

	// Both devices idle (equally busy after the symmetric write): the tie
	// goes to device 0.
	a.Issue(sim.Request{LPN: 0, Pages: 1}, done)
	if reads(0) != 1 || reads(1) != 0 {
		t.Fatalf("tied read went to device 1 (reads %d/%d), want device 0", reads(0), reads(1))
	}
	// Device 0 is now the busier replica, so the next read at the same
	// instant must route to device 1.
	a.Issue(sim.Request{LPN: 0, Pages: 1}, done)
	if reads(1) != 1 {
		t.Fatalf("read did not route to the less-busy replica (reads %d/%d)", reads(0), reads(1))
	}
}

// TestStripingFailureLosesUnits pins the no-redundancy failure path: the
// dead device's units are counted lost, requests touching them fail fast,
// and requests entirely on survivors keep succeeding.
func TestStripingFailureLosesUnits(t *testing.T) {
	a := testArray(t, Config{Devices: 2, Policy: Striping, Util: 0.5}, 2)
	s := int64(stripe)
	if err := a.ScheduleFailure(1, 2, "test kill"); err != nil {
		t.Fatalf("ScheduleFailure: %v", err)
	}
	write(t, a, 0, int(s), 0) // request 1: unit 0 (device 0), before the kill
	// Request 2 trips the kill, then touches unit 1 (device 1): lost.
	if _, _ = a.Issue(sim.Request{LPN: s, Pages: int(s), Write: true}, 0); a.LostRequests() != 1 {
		t.Fatalf("write to dead device not lost (lost=%d)", a.LostRequests())
	}
	if a.Alive(1) || !a.Alive(0) {
		t.Fatalf("alive state wrong: dev0=%v dev1=%v", a.Alive(0), a.Alive(1))
	}
	// Half the round-robin units lived on device 1.
	if want := (a.Layout().Units + 1) / 2; a.LostUnits() != want {
		t.Errorf("LostUnits = %d, want %d", a.LostUnits(), want)
	}
	// Unit 0 still lives on device 0.
	before := a.LostRequests()
	a.Issue(sim.Request{LPN: 0, Pages: 1}, 0)
	if a.LostRequests() != before {
		t.Errorf("read of surviving unit lost")
	}
	// The dead device's collector and the array's both latched the failure.
	if !a.Devices()[1].Collector().DeviceFailed || !a.Collector().DeviceFailed {
		t.Errorf("failure not latched (dev=%v array=%v)",
			a.Devices()[1].Collector().DeviceFailed, a.Collector().DeviceFailed)
	}
}

// TestReplicateRebuild kills one replica of a 3-device mirrored array and
// drives the rebuild pump to completion: every unit re-replicates onto
// survivors, nothing is lost, and reads of re-homed units route to the
// overlay without touching the dead device.
func TestReplicateRebuild(t *testing.T) {
	a := testArray(t, Config{Devices: 3, Policy: Replicate, Replicas: 2, Util: 0.5}, 3)
	s := int64(stripe)
	units := a.Layout().Units

	// Populate every unit, then kill device 0 on the next request.
	var now nand.Time
	for u := int64(0); u < units; u++ {
		if d := write(t, a, u*s, int(s), now); d > now {
			now = d
		}
	}
	if err := a.ScheduleFailure(0, a.issued+1, "test kill"); err != nil {
		t.Fatalf("ScheduleFailure: %v", err)
	}
	write(t, a, 0, 1, now) // replicated: survives the kill it triggers
	if a.Alive(0) {
		t.Fatal("device 0 still alive after kill")
	}
	if a.LostUnits() != 0 {
		t.Fatalf("replicated kill lost %d units", a.LostUnits())
	}
	want := a.PendingRebuild()
	if want == 0 {
		t.Fatal("no rebuild jobs enqueued")
	}

	// An unbounded idle gap drains the whole queue.
	a.BackgroundWork(now, now+100*nand.Second)
	if a.PendingRebuild() != 0 || a.Rebuilt() != want {
		t.Fatalf("rebuild incomplete: %d done, %d pending", a.Rebuilt(), a.PendingRebuild())
	}
	if a.RebuildPages() != want*s {
		t.Errorf("RebuildPages = %d, want %d", a.RebuildPages(), want*s)
	}

	// Every unit must still be fully readable and writable, and the dead
	// device must see none of the traffic.
	deadCounters := a.Devices()[0].Flash().Counters()
	deadReads := deadCounters.TotalReads()
	before := a.LostRequests()
	for u := int64(0); u < units; u++ {
		a.Issue(sim.Request{LPN: u * s, Pages: int(s)}, a.Busy())
		write(t, a, u*s, int(s), a.Busy())
	}
	if a.LostRequests() != before {
		t.Fatalf("post-rebuild traffic lost %d requests", a.LostRequests()-before)
	}
	deadCounters = a.Devices()[0].Flash().Counters()
	if got := deadCounters.TotalReads(); got != deadReads {
		t.Errorf("dead device read %d more pages after rebuild", got-deadReads)
	}
}

// TestPassthroughExtentMerging pins the 1-device invariant at the routing
// layer: any request collapses to exactly one device call covering the
// same page run, for both single-copy policies.
func TestPassthroughExtentMerging(t *testing.T) {
	for _, pol := range []Policy{Striping, Hash} {
		a := testArray(t, Config{Devices: 1, Policy: pol}, 1)
		for _, req := range []struct {
			lpn   int64
			pages int
		}{{0, 1}, {3, 8}, {5, 29}, {16, 16}} {
			exts, ok := a.routeRead(req.lpn, req.pages, nil)
			if !ok || len(exts) != 1 || exts[0] != (extent{dev: 0, lpn: req.lpn, pages: req.pages}) {
				t.Errorf("%s: routeRead(%d,%d) = %+v ok=%v, want one identity extent",
					pol, req.lpn, req.pages, exts, ok)
			}
			exts, ok = a.routeAll(req.lpn, req.pages, nil)
			if !ok || len(exts) != 1 || exts[0] != (extent{dev: 0, lpn: req.lpn, pages: req.pages}) {
				t.Errorf("%s: routeAll(%d,%d) = %+v ok=%v, want one identity extent",
					pol, req.lpn, req.pages, exts, ok)
			}
		}
	}
}
