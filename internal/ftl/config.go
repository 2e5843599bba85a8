// Package ftl defines the FTL interface all five reproduced schemes
// implement and the translation spine they share. State owns the flash
// array, the authoritative L2P (a mapping.L2P: 4 bytes per LPN), the GTD and
// the mount scan that rebuilds both maps from OOB — once, under every scheme.
// Base embeds State and adds what is block-granular: the block manager with
// dynamic allocation, translation-page maintenance, garbage collection, TRIM
// and scrub. Demand is the demand-paging mapping cache under DFTL, TPFTL
// (internal/demand) and LearnedFTL (internal/core). Ideal is the full
// page-level FTL used as the paper's upper bound.
package ftl

import (
	"fmt"

	"learnedftl/internal/fault"
	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// Config carries every tunable of a simulated device + FTL pair. The zero
// value is not usable; start from DefaultConfig.
type Config struct {
	Geometry nand.Geometry
	Timing   nand.Timing
	Energy   nand.Energy

	// OPRatio is the over-provisioned fraction of physical capacity. The
	// paper's device exposes 32GB logical over 34GB physical (~6%).
	OPRatio float64

	// CMTRatio sizes the cached mapping table as a fraction of the total
	// number of logical page mappings. The paper uses 3% for DFTL/TPFTL
	// and LeaFTL's model cache, and 1.5% for LearnedFTL (§IV-A), because
	// LearnedFTL's in-place models consume the other half of the budget.
	CMTRatio float64

	// EntriesPerTP is the number of mappings per translation page
	// (4KB page / 8B entry = 512 in the paper). Tests shrink it so tiny
	// geometries still exercise multi-translation-page behavior.
	EntriesPerTP int

	// GroupEntries is the number of consecutive GTD entries per GTD entry
	// group for LearnedFTL's group-based allocation (paper: 64).
	GroupEntries int

	// MaxPieces bounds the in-place-update model's parameter array
	// (paper default: 8).
	MaxPieces int

	// LeaGamma is LeaFTL's learned-segment error bound.
	LeaGamma int64

	// LeaBufferPages is LeaFTL's data buffer capacity (paper: 2048 pages).
	LeaBufferPages int

	// GCLowWater triggers garbage collection when the count of free blocks
	// drops to this value.
	GCLowWater int

	// GCPolicy selects the victim-selection policy ("" = greedy). The
	// block-granular FTLs score whole blocks; LearnedFTL scores GTD entry
	// groups with the same policy kinds.
	GCPolicy gc.Kind

	// GCBGWater is the background-collection target: idle-gap GC (open-loop
	// host model) tops the free pool up to this many blocks. Zero derives
	// 2×GCLowWater.
	GCBGWater int

	// BlockEndurance is the rated program/erase cycles per block, used only
	// for the projected-lifetime report (typical TLC: 3000).
	BlockEndurance int64

	// GroupSuperblocks is the number of superblocks a GTD entry group may
	// accumulate before group GC triggers (LearnedFTL).
	GroupSuperblocks int

	// Fault configures the NAND reliability model (internal/fault): BER vs
	// wear/retention/read-disturb, ECC read-retry, program/erase failure
	// injection and background scrub. The zero value disables it, keeping
	// every flash path bit-identical to the ideal-NAND device.
	Fault fault.Config

	// Learned holds LearnedFTL's design switches and CPU charges; the other
	// schemes ignore it. DefaultConfig sets the paper's values; the
	// ablations switch one off.
	Learned LearnedConfig
}

// LearnedConfig tweaks LearnedFTL behavior for the paper's ablations.
type LearnedConfig struct {
	// ChargeTraining adds the measured CPU cost of sorting+training per
	// GTD entry to GC time (Fig. 15/17/18a). Disabled = the paper's
	// "w/o training&sorting" configuration.
	ChargeTraining bool
	// SortTrainCost is the virtual CPU time per GTD entry for GC-time
	// sorting + training (paper: ~50µs on ARM Cortex-A72).
	SortTrainCost nand.Time
	// PredictCost is the virtual CPU time of one model prediction on the
	// read path (paper Fig. 15: 0.65µs). Zero gives the paper's "ideal
	// LearnedFTL" that fetches the PPN from a full DRAM map instead
	// (Fig. 18b).
	PredictCost nand.Time
	// DisableVPPN trains models on raw PPNs instead of VPPNs — the
	// ablation showing why §III-C exists.
	DisableVPPN bool
	// DisableSeqInit turns off §III-E1 sequential initialization.
	DisableSeqInit bool
	// DisableCrossGroup turns off §III-D opportunistic cross-group
	// allocation.
	DisableCrossGroup bool
}

// DefaultConfig returns the paper's configuration at the given geometry.
func DefaultConfig(g nand.Geometry) Config {
	return Config{
		Geometry:       g,
		Timing:         nand.DefaultTiming(),
		Energy:         nand.DefaultEnergy(),
		OPRatio:        0.08,
		CMTRatio:       0.03,
		EntriesPerTP:   g.PageSize / 8,
		GroupEntries:   64,
		MaxPieces:      8,
		LeaGamma:       4,
		LeaBufferPages: 2048,
		// GC must start while every chip can still open a fresh active
		// block for both the data and translation streams; anything
		// smaller can wedge a 64-chip device mid-collection.
		GCLowWater:       max(4, 2*g.Chips()),
		GCPolicy:         gc.Greedy,
		BlockEndurance:   3000,
		GroupSuperblocks: 3,
		Learned: LearnedConfig{
			ChargeTraining: true,
			SortTrainCost:  50 * nand.Microsecond,
			PredictCost:    650, // 0.65µs
		},
	}
}

// LogicalPages returns the number of LPNs the device exposes: physical
// capacity minus over-provisioning, rounded down to a whole GTD entry group
// (hence also a whole translation page) so every scheme — including the
// group-based allocator — sees the identical logical space.
func (c Config) LogicalPages() int64 {
	span := int64(c.GroupEntries) * int64(c.EntriesPerTP)
	lp := int64(float64(c.Geometry.TotalPages()) * (1 - c.OPRatio))
	lp -= lp % span
	if lp < span {
		lp = span
	}
	return lp
}

// NumTPNs returns the number of translation pages covering the logical
// space.
func (c Config) NumTPNs() int {
	return int(c.LogicalPages() / int64(c.EntriesPerTP))
}

// TPNOf returns the translation page covering lpn. It and TPRange take a
// pointer: they run inside per-page loops, where a value receiver copied
// the whole Config on every call.
func (c *Config) TPNOf(lpn int64) int { return int(lpn / int64(c.EntriesPerTP)) }

// TPRange returns the [lo, hi) LPN range of translation page tpn.
func (c *Config) TPRange(tpn int) (lo, hi int64) {
	lo = int64(tpn) * int64(c.EntriesPerTP)
	return lo, lo + int64(c.EntriesPerTP)
}

// CMTEntriesFor returns the mapping-cache capacity in entries for ratio r.
func (c Config) CMTEntriesFor(r float64) int {
	n := int(float64(c.LogicalPages()) * r)
	if n < 1 {
		n = 1
	}
	return n
}

// CMTEntries returns the configured mapping-cache capacity in entries.
func (c Config) CMTEntries() int { return c.CMTEntriesFor(c.CMTRatio) }

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.OPRatio <= 0 || c.OPRatio >= 0.5 {
		return fmt.Errorf("ftl: OPRatio %v out of (0, 0.5)", c.OPRatio)
	}
	if c.EntriesPerTP <= 0 || c.GroupEntries <= 0 {
		return fmt.Errorf("ftl: EntriesPerTP/GroupEntries must be positive")
	}
	// LogicalPages is at most max(TotalPages, one group span) and NumTPNs at
	// most LogicalPages, so bounding the span bounds every LPN and TPN to the
	// device limit Geometry.Validate set for PPNs.
	if c.GroupEntries > nand.MaxPages/c.EntriesPerTP {
		return fmt.Errorf("ftl: group span GroupEntries×EntriesPerTP = %d×%d exceeds the %d-page device limit",
			c.GroupEntries, c.EntriesPerTP, int64(nand.MaxPages))
	}
	// LeaFTL packs a segment's span (at most a translation page) and its
	// error (at most the bound) into 16 bits each, and names a page's
	// segments by 16-bit handles: the ones still visible, at most one per
	// entry, and one page's fit must fit below 2^16 together.
	if c.EntriesPerTP >= 1<<15 {
		return fmt.Errorf("ftl: EntriesPerTP %d must be below 2^15", c.EntriesPerTP)
	}
	if c.LeaGamma < 0 || c.LeaGamma > 1<<15 {
		return fmt.Errorf("ftl: LeaGamma %d out of [0, 2^15]", c.LeaGamma)
	}
	if c.GCLowWater < 2 {
		return fmt.Errorf("ftl: GCLowWater must be >= 2")
	}
	if _, ok := gc.ParseKind(string(c.GCPolicy)); !ok {
		return fmt.Errorf("ftl: unknown GC policy %q (want one of %v)", c.GCPolicy, gc.Kinds())
	}
	if c.Learned.SortTrainCost < 0 || c.Learned.PredictCost < 0 {
		return fmt.Errorf("ftl: LearnedFTL CPU charges must not be negative (SortTrainCost %d, PredictCost %d)",
			c.Learned.SortTrainCost, c.Learned.PredictCost)
	}
	return c.Fault.Validate()
}

// FTL is the behavior every reproduced scheme implements. Page-granular
// host requests enter at a virtual time and return their completion time;
// the engine derives latency and throughput from the difference.
type FTL interface {
	Name() string
	// ReadPages serves a host read of n consecutive pages starting at lpn.
	ReadPages(lpn int64, n int, now nand.Time) nand.Time
	// WritePages serves a host write of n consecutive pages starting at lpn.
	WritePages(lpn int64, n int, now nand.Time) nand.Time
	// TrimPages serves a host TRIM/Discard of n consecutive pages starting
	// at lpn: the mappings are dropped and the flash pages invalidated so
	// GC reclaims them for free. A metadata operation — no flash I/O.
	TrimPages(lpn int64, n int, now nand.Time) nand.Time
	// Collector exposes the metrics sink.
	Collector() *stats.Collector
	// Flash exposes the underlying flash array.
	Flash() *nand.Flash
	// Config exposes the device configuration.
	Config() Config
}
