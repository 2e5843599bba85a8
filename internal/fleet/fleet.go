package fleet

import (
	"fmt"

	"learnedftl/internal/fault"
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
)

// Array is a fleet of independent simulated SSDs behind one placement
// layer. It implements sim.OpenTarget, so sim.RunOpenTarget drives it with
// the same open-loop host model — arrivals, per-stream FIFO queueing,
// latency recording — that drives a single device, under one virtual
// clock. Host-level latencies land in the Array's own collector; each
// device's collector keeps its device-internal events (GC, CMT traffic,
// read classes), so per-device reports stay meaningful.
//
// The Array is not safe for concurrent use; like a single device it is
// driven by exactly one engine.
type Array struct {
	lay   *Layout
	devs  []ftl.FTL
	alive []bool
	col   *stats.Collector

	issued     int64
	killAfter  int64 // fail killDev when issued reaches this (0 = never)
	killDev    int
	killReason string

	// Replication rebuild state: the job queue enumerated at kill time,
	// the overlay of re-homed units consulted by routing afterward, and
	// the per-device spare-slot allocator (starts at the layout's
	// high-water marks).
	jobs     []rebuildJob
	jobNext  int
	overlay  map[int64]Loc
	spare    []int64
	rebuildT nand.Time // virtual clock of the rebuild pump

	// Failure/rebuild tallies (see the accessors for meanings).
	lostRequests int64
	lostUnits    int64
	rebuilt      int64
	rebuildPages int64

	locs []Loc    // routing scratch
	exts []extent // routing scratch
}

// rebuildJob re-replicates one unit: read it from the surviving source
// replica, write it to the spare slot on the chosen target device.
type rebuildJob struct {
	unit int64
	src  Loc
	dst  Loc
}

// extent is one device-local contiguous page run of a routed request.
type extent struct {
	dev   int32
	lpn   int64
	pages int
}

// NewArray assembles an Array over devices matching the layout. Devices
// must all have at least the layout's per-device logical capacity; they are
// typically identical warmed clones (see the root package's fleet
// experiment for checkpoint-shared warm-up).
func NewArray(lay *Layout, devs []ftl.FTL) (*Array, error) {
	if len(devs) != lay.Cfg.Devices {
		return nil, fmt.Errorf("fleet: layout wants %d devices, got %d", lay.Cfg.Devices, len(devs))
	}
	for i, f := range devs {
		if lp := f.Config().LogicalPages(); lp < lay.PerDevicePages {
			return nil, fmt.Errorf("fleet: device %d has %d logical pages, layout needs %d", i, lp, lay.PerDevicePages)
		}
	}
	a := &Array{
		lay:     lay,
		devs:    devs,
		alive:   make([]bool, len(devs)),
		col:     stats.NewCollector(),
		killDev: -1,
		spare:   append([]int64(nil), lay.UsedSlots...),
	}
	for i := range a.alive {
		a.alive[i] = true
	}
	return a, nil
}

// Layout returns the array's placement layout.
func (a *Array) Layout() *Layout { return a.lay }

// LostRequests counts host requests failed because some stripe unit they
// touched had no alive replica.
func (a *Array) LostRequests() int64 { return a.lostRequests }

// LostUnits counts stripe units unrecoverable after a failure: all copies
// dead, or no spare capacity left to re-home them (single-copy policies
// lose every unit of the dead device).
func (a *Array) LostUnits() int64 { return a.lostUnits }

// Rebuilt counts units re-replicated onto survivors so far and
// PendingRebuild the jobs still queued.
func (a *Array) Rebuilt() int64        { return a.rebuilt }
func (a *Array) PendingRebuild() int64 { return int64(len(a.jobs) - a.jobNext) }

// ScheduleFailure arms a mid-run device kill: after `after` host requests
// have been issued, device dev drops dead — its in-flight schedule stands,
// but no further request routes to it. The kill latches the device's
// collector (and the array's) through the same device-failed path the
// reliability subsystem uses, poisons the device's flash with a lethal
// fault model so any stray access is loudly uncorrectable, and — under
// replication — enqueues rebuild jobs that run as background work.
func (a *Array) ScheduleFailure(dev int, after int64, reason string) error {
	if dev < 0 || dev >= len(a.devs) {
		return fmt.Errorf("fleet: failure device %d out of range", dev)
	}
	if after < 1 {
		return fmt.Errorf("fleet: failure point %d requests out of range", after)
	}
	a.killDev, a.killAfter, a.killReason = dev, after, reason
	return nil
}

// Busy implements sim.OpenTarget: the array's drain time is the latest
// scheduled completion across every chip of every device.
func (a *Array) Busy() nand.Time {
	var busy nand.Time
	for _, f := range a.devs {
		if b := f.Flash().MaxChipBusy(); b > busy {
			busy = b
		}
	}
	return busy
}

// Collector implements sim.OpenTarget: the host-level metrics sink.
func (a *Array) Collector() *stats.Collector { return a.col }

// BackgroundWork implements sim.OpenTarget: every alive device is offered
// the idle gap for background GC, then the rebuild pump replays rebuild
// traffic into whatever remains — so rebuild competes with foreground
// tenants through ordinary per-chip queueing, exactly like background GC.
func (a *Array) BackgroundWork(start, deadline nand.Time) {
	for i, f := range a.devs {
		if !a.alive[i] {
			continue
		}
		if bg, ok := f.(ftl.BackgroundCollector); ok {
			bg.BackgroundGC(start, deadline)
		}
	}
	a.pumpRebuild(start, deadline)
}

// Issue implements sim.OpenTarget: route one host request through the
// placement and issue its device-local extents, all departing at now (the
// fan-out is the array's parallelism), completing at the latest extent.
func (a *Array) Issue(req sim.Request, now nand.Time) (nand.Time, int) {
	a.issued++
	if a.killAfter > 0 && a.issued == a.killAfter {
		a.kill(now)
	}
	pages := req.Pages
	if req.Trim {
		if pages <= 0 {
			return now, 0
		}
	} else if pages <= 0 {
		pages = 1
	}
	var ok bool
	if req.Write || req.Trim {
		a.exts, ok = a.routeAll(req.LPN, pages, a.exts[:0])
	} else {
		a.exts, ok = a.routeRead(req.LPN, pages, a.exts[:0])
	}
	if !ok {
		// Some unit has no alive replica: the request fails host-visibly
		// and instantly (EIO), and the loss is tallied rather than
		// silently averaged away.
		a.lostRequests++
		return now, pages
	}
	done := now
	for _, e := range a.exts {
		f := a.devs[e.dev]
		var d nand.Time
		switch {
		case req.Trim:
			d = f.TrimPages(e.lpn, e.pages, now)
		case req.Write:
			d = f.WritePages(e.lpn, e.pages, now)
		default:
			d = f.ReadPages(e.lpn, e.pages, now)
		}
		if d > done {
			done = d
		}
	}
	return done, pages
}

// locsFor collects unit u's replica locations: the placement's copies with
// a rebuilt replacement substituted for (or added beside) the dead
// device's copy.
func (a *Array) locsFor(u int64) []Loc {
	a.locs = a.lay.Place.Locate(u, a.locs[:0])
	if a.overlay != nil {
		if loc, ok := a.overlay[u]; ok {
			a.locs = append(a.locs, loc)
		}
	}
	return a.locs
}

// routeRead maps [lpn, lpn+pages) to one extent per stripe unit, choosing
// the least-busy alive replica (ties to the lowest device index — the
// deterministic tie-break every engine in this repo uses). Adjacent
// same-device contiguous extents merge, so a 1-device array issues exactly
// one device call per request — the passthrough byte-identity invariant.
func (a *Array) routeRead(lpn int64, pages int, dst []extent) ([]extent, bool) {
	s := int64(a.lay.Cfg.Stripe)
	for p := lpn; p < lpn+int64(pages); {
		u, off := p/s, p%s
		n := s - off
		if rem := lpn + int64(pages) - p; rem < n {
			n = rem
		}
		best := Loc{Dev: -1}
		var bestBusy nand.Time
		for _, loc := range a.locsFor(u) {
			if !a.alive[loc.Dev] {
				continue
			}
			busy := a.devs[loc.Dev].Flash().MaxChipBusy()
			if best.Dev == -1 || busy < bestBusy || (busy == bestBusy && loc.Dev < best.Dev) {
				best, bestBusy = loc, busy
			}
		}
		if best.Dev == -1 {
			return dst, false
		}
		dst = appendExtent(dst, extent{dev: best.Dev, lpn: best.Slot*s + off, pages: int(n)})
		p += n
	}
	return dst, true
}

// routeAll maps [lpn, lpn+pages) to extents covering every alive replica
// (write/trim fan-out). The loop is replica-major so each replica chain
// merges independently; under a single copy it degenerates to routeRead's
// ascending order.
func (a *Array) routeAll(lpn int64, pages int, dst []extent) ([]extent, bool) {
	s := int64(a.lay.Cfg.Stripe)
	copies := a.lay.Place.Copies()
	if a.overlay != nil {
		copies++ // one extra pass for rebuilt replacements
	}
	for r := 0; r < copies; r++ {
		for p := lpn; p < lpn+int64(pages); {
			u, off := p/s, p%s
			n := s - off
			if rem := lpn + int64(pages) - p; rem < n {
				n = rem
			}
			locs := a.locsFor(u)
			if r < len(locs) {
				if loc := locs[r]; a.alive[loc.Dev] {
					dst = appendExtent(dst, extent{dev: loc.Dev, lpn: loc.Slot*s + off, pages: int(n)})
				}
			}
			p += n
		}
	}
	// Coverage check: every unit must reach at least one alive replica.
	for p := lpn; p < lpn+int64(pages); {
		u, off := p/s, p%s
		n := s - off
		if rem := lpn + int64(pages) - p; rem < n {
			n = rem
		}
		any := false
		for _, loc := range a.locsFor(u) {
			if a.alive[loc.Dev] {
				any = true
				break
			}
		}
		if !any {
			return dst, false
		}
		p += n
	}
	return dst, true
}

// appendExtent appends e, merging with the previous extent when it
// continues the same device-local run.
func appendExtent(dst []extent, e extent) []extent {
	if n := len(dst); n > 0 {
		last := &dst[n-1]
		if last.dev == e.dev && last.lpn+int64(last.pages) == e.lpn {
			last.pages += e.pages
			return dst
		}
	}
	return append(dst, e)
}

// kill fails the armed device at virtual time now: it stops receiving
// requests, both its own collector and the array's latch the failure (so
// the wedged device is surfaced, not averaged away), its flash is poisoned
// with a lethal fault model, and — under replication — the rebuild queue
// is enumerated in ascending unit order.
func (a *Array) kill(now nand.Time) {
	d := a.killDev
	if d < 0 || !a.alive[d] {
		return
	}
	a.alive[d] = false
	a.devs[d].Collector().RecordDeviceFailure(a.killReason)
	a.col.RecordDeviceFailure(fmt.Sprintf("device %d: %s", d, a.killReason))
	// Poison the dead device through the reliability subsystem: a raw BER
	// far past any ECC makes every stray read uncorrectable, so a routing
	// bug can never silently read a failed device.
	fc := fault.Default()
	fc.Enabled = true
	fc.BaseBER = 0.5
	fc.RetrySteps = 0
	pageBits := int64(a.devs[d].Config().Geometry.PageSize) * 8
	a.devs[d].Flash().SetFaultModel(fault.New(fc, pageBits))
	if a.lay.Cfg.Policy != Replicate {
		// No redundancy: every unit with a copy on the dead device is
		// host-visible data loss, counted here and charged per-request as
		// traffic touches it.
		var scratch []Loc
		for u := int64(0); u < a.lay.Units; u++ {
			scratch = a.lay.Place.Locate(u, scratch[:0])
			for _, loc := range scratch {
				if int(loc.Dev) == d {
					a.lostUnits++
					break
				}
			}
		}
		return
	}
	a.enqueueRebuild(d)
	a.rebuildT = now
}

// enqueueRebuild enumerates the rebuild queue for dead device d: every
// unit with a copy there gets a (source survivor, spare target slot) job,
// targets rotating round-robin across alive devices that do not already
// hold the unit. Units without a survivor or without spare capacity are
// counted lost.
func (a *Array) enqueueRebuild(d int) {
	a.overlay = make(map[int64]Loc)
	next := (d + 1) % len(a.devs) // round-robin target cursor
	var scratch []Loc
	for u := int64(0); u < a.lay.Units; u++ {
		scratch = a.lay.Place.Locate(u, scratch[:0])
		hit := false
		src := Loc{Dev: -1}
		for _, loc := range scratch {
			if int(loc.Dev) == d {
				hit = true
			} else if a.alive[loc.Dev] && src.Dev == -1 {
				src = loc
			}
		}
		if !hit {
			continue
		}
		if src.Dev == -1 {
			a.lostUnits++
			continue
		}
		dst := a.pickTarget(&next, scratch)
		if dst == -1 {
			a.lostUnits++
			continue
		}
		a.jobs = append(a.jobs, rebuildJob{unit: u, src: src, dst: Loc{Dev: int32(dst), Slot: a.spare[dst]}})
		a.spare[dst]++
	}
}

// pickTarget advances the round-robin cursor to the next alive device with
// spare capacity that does not already hold the unit, or -1 if none.
func (a *Array) pickTarget(next *int, holders []Loc) int {
	maxSlots := a.lay.PerDevicePages / int64(a.lay.Cfg.Stripe)
	for tries := 0; tries < len(a.devs); tries++ {
		d := (*next + tries) % len(a.devs)
		if !a.alive[d] || a.spare[d] >= maxSlots {
			continue
		}
		holds := false
		for _, loc := range holders {
			if int(loc.Dev) == d {
				holds = true
				break
			}
		}
		if holds {
			continue
		}
		*next = (d + 1) % len(a.devs)
		return d
	}
	return -1
}

// pumpRebuild replays queued rebuild jobs into the idle gap [start,
// deadline): each job reads the unit from its surviving source replica and
// writes it to the spare target slot, strictly serialized (one unit in
// flight — a real rebuild throttles itself). Jobs stop launching at the
// deadline; one the next arrival catches mid-flight spills into foreground
// service time through per-chip queueing, exactly like background GC. The
// pump's clock persists across gaps so rebuild resumes where it stopped.
func (a *Array) pumpRebuild(start, deadline nand.Time) {
	if a.jobNext >= len(a.jobs) {
		return
	}
	t := a.rebuildT
	if t < start {
		t = start
	}
	s := int64(a.lay.Cfg.Stripe)
	for a.jobNext < len(a.jobs) && t < deadline {
		j := a.jobs[a.jobNext]
		rdone := a.devs[j.src.Dev].ReadPages(j.src.Slot*s, int(s), t)
		if rdone < t {
			rdone = t
		}
		wdone := a.devs[j.dst.Dev].WritePages(j.dst.Slot*s, int(s), rdone)
		if wdone < rdone {
			wdone = rdone
		}
		t = wdone
		a.overlay[j.unit] = j.dst
		a.rebuilt++
		a.rebuildPages += s
		a.jobNext++
	}
	a.rebuildT = t
}
