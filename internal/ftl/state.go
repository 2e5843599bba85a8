package ftl

import (
	"fmt"

	"learnedftl/internal/fault"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/stats"
)

// State is the translation state every scheme owns exactly once, whatever its
// allocation policy: the flash array, the authoritative logical-to-physical
// map, the GTD, the metrics sink, and the mount scan that rebuilds the two
// maps from the flash array alone. Base (block-granular allocation) and
// LearnedFTL (group allocation) both embed it.
type State struct {
	Cfg   Config
	Fl    *nand.Flash
	Codec nand.AddrCodec
	Col   *stats.Collector
	GTD   *mapping.GTD

	// L2P is the authoritative logical-to-physical map. Translation pages
	// and caches control when flash operations happen; correctness of the
	// mapping itself is tracked here, as in trace-driven FTL simulators.
	L2P mapping.L2P

	// lastScan holds the counters of the most recent RecoverMappings mount
	// scan (see MountScanStats).
	lastScan persist.ScanStats
}

// NewState builds the flash array (with cfg's fault model attached), an
// all-unmapped L2P of logicalPages entries, an all-unwritten GTD of numTPNs
// translation pages and a fresh collector.
func NewState(cfg Config, logicalPages int64, numTPNs int) (State, error) {
	if err := cfg.Validate(); err != nil {
		return State{}, err
	}
	fl, err := nand.NewFlash(cfg.Geometry, cfg.Timing)
	if err != nil {
		return State{}, err
	}
	if cfg.Fault.Enabled {
		fl.SetFaultModel(fault.New(cfg.Fault, int64(cfg.Geometry.PageSize)*8))
	}
	return State{
		Cfg:   cfg,
		Fl:    fl,
		Codec: fl.Codec(),
		Col:   stats.NewCollector(),
		GTD:   mapping.NewGTD(numTPNs),
		L2P:   mapping.NewL2P(logicalPages),
	}, nil
}

// Collector implements FTL.
func (s *State) Collector() *stats.Collector { return s.Col }

// Flash implements FTL.
func (s *State) Flash() *nand.Flash { return s.Fl }

// Config implements FTL.
func (s *State) Config() Config { return s.Cfg }

// Mapped reports whether lpn currently has flash-resident data.
func (s *State) Mapped(lpn int64) bool { return s.L2P.Mapped(lpn) }

// ReadTrans reads the translation page tpn from flash (a translation read —
// the first half of a double read). When the page has never been written the
// mapping is definitionally absent and no flash read occurs.
func (s *State) ReadTrans(tpn int, after nand.Time) nand.Time {
	if !s.GTD.Written(tpn) {
		return after
	}
	return s.Fl.Read(s.GTD.Lookup(tpn), after, nand.OpTranslation)
}

// ShadowL2P returns a copy of the authoritative logical-to-physical map
// (recovery invariants, tests).
func (s *State) ShadowL2P() []nand.PPN { return s.L2P.PPNs() }

// GTDLocations returns a copy of the GTD's translation-page locations
// (recovery invariants, tests).
func (s *State) GTDLocations() []nand.PPN {
	out := make([]nand.PPN, s.GTD.NumTPNs())
	for t := range out {
		out[t] = s.GTD.Lookup(t)
	}
	return out
}

// MountScanStats returns the bookkeeping counters of the most recent
// RecoverMappings scan: lost mappings, torn pages discarded, bad blocks
// skipped.
func (s *State) MountScanStats() persist.ScanStats { return s.lastScan }

// RecoverMappings is the mount scan of paper Fig. 11: the L2P and the GTD —
// DRAM, lost with power — are discarded and rebuilt from the reverse mappings
// in the flash array's OOB area. It returns the scan's completion time. The
// caller rebuilds its allocator view afterwards: the dedup below settles the
// per-block valid counts that rebuild reads.
func (s *State) RecoverMappings(now nand.Time) nand.Time {
	s.L2P.Reset()
	s.GTD = mapping.NewGTD(s.GTD.NumTPNs())
	res := persist.ScanOOB(s.Fl, now)
	lp := s.L2P.Len()
	for _, m := range res.Data {
		if m.Key < 0 || m.Key >= lp {
			continue
		}
		if old := s.L2P.Get(m.Key); old != nand.InvalidPPN {
			// Two valid pages for one LPN: power died between the new copy's
			// program completing and the old copy's invalidate (host
			// overwrite, or GC relocation — either way the operation was
			// never acknowledged, so either copy satisfies durability, but
			// exactly one may stay valid). Scan order is deterministic, so
			// last-seen-wins picks the same survivor on every mount.
			if err := s.Fl.Invalidate(old); err != nil {
				panic(fmt.Sprintf("ftl: recovery dedup of LPN %d: %v", m.Key, err))
			}
		}
		s.L2P.Set(m.Key, m.PPN)
	}
	for _, m := range res.Trans {
		if m.Key < 0 || m.Key >= int64(s.GTD.NumTPNs()) {
			continue
		}
		tpn := int(m.Key)
		if s.GTD.Written(tpn) {
			// Same both-copies-visible race for translation pages: a crash
			// between a translation update's program and its invalidate.
			if err := s.Fl.Invalidate(s.GTD.Lookup(tpn)); err != nil {
				panic(fmt.Sprintf("ftl: recovery dedup of TPN %d: %v", tpn, err))
			}
		}
		s.GTD.Update(tpn, m.PPN)
	}
	s.lastScan = res.ScanStats
	return res.Done
}

// SaveMapState appends the prefix every scheme's snapshot starts with: the
// flash array, the L2P and the GTD.
func (s *State) SaveMapState(e *persist.Encoder) {
	persist.SaveFlash(e, s.Fl)
	persist.SaveL2P(e, s.L2P)
	persist.SaveGTD(e, s.GTD)
}

// LoadMapState restores a SaveMapState section into a freshly constructed
// State of the same configuration.
func (s *State) LoadMapState(d *persist.Decoder) error {
	if err := persist.LoadFlash(d, s.Fl); err != nil {
		return err
	}
	totalPages := int64(s.Cfg.Geometry.TotalPages())
	if err := persist.LoadL2P(d, s.L2P, totalPages); err != nil {
		return err
	}
	if err := persist.LoadGTD(d, s.GTD, totalPages); err != nil {
		return err
	}
	// A mapped LPN or TPN names the valid page whose OOB holds it: its next
	// write invalidates that page, which panics on any other page state.
	holds := func(p nand.PPN, oob nand.OOB) bool {
		return p == nand.InvalidPPN || s.Fl.State(p) == nand.PageValid && s.Fl.PageOOB(p) == oob
	}
	for lpn, p := range s.L2P.Entries() {
		if !holds(nand.PPN(p), nand.OOB{Key: int64(lpn)}) {
			return fmt.Errorf("ftl: snapshot maps LPN %d to page %d, which does not hold it", lpn, p)
		}
	}
	for tpn, p := range s.GTD.Locations() {
		if !holds(p, nand.OOB{Key: int64(tpn), Trans: true}) {
			return fmt.Errorf("ftl: snapshot places TPN %d at page %d, which does not hold it", tpn, p)
		}
	}
	return nil
}
