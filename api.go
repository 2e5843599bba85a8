// Package learnedftl is a discrete-event SSD simulation library that
// reproduces "LearnedFTL: A Learning-Based Page-Level FTL for Reducing
// Double Reads in Flash-Based SSDs" (HPCA 2024).
//
// It provides five flash translation layers over a common NAND timing model
// — DFTL, TPFTL, LeaFTL, LearnedFTL (the paper's contribution) and an ideal
// full-map FTL — plus the workload generators and experiment harnesses that
// regenerate every figure and table of the paper's evaluation.
//
// New builds one device; RunExperiments regenerates the evaluation's tables
// by experiment id (ExperimentList). The package Example, which README's
// Quickstart repeats, regenerates Fig. 14 on the tiny device.
package learnedftl

import (
	"fmt"
	"slices"
	"strings"

	"learnedftl/internal/core"
	"learnedftl/internal/demand"
	"learnedftl/internal/ftl"
	"learnedftl/internal/gc"
	"learnedftl/internal/leaftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/sim"
	"learnedftl/internal/sweep"
)

// Re-exported configuration types so users do not import internal packages.
type (
	// Config is the device + FTL configuration.
	Config = ftl.Config
	// FTL is the interface all five schemes implement.
	FTL = ftl.FTL
	// ArrivalKind selects an open-loop stream's arrival process.
	ArrivalKind = sim.ArrivalKind
	// RunResult summarizes one engine run (virtual start/end, requests).
	RunResult = sim.Result
	// GCPolicy names a garbage-collection victim-selection policy
	// (Config.GCPolicy).
	GCPolicy = gc.Kind
)

// GCPolicies returns the built-in policies in presentation order.
func GCPolicies() []GCPolicy { return gc.Kinds() }

// ParseGCPolicy maps a flag value to a GCPolicy, reporting whether the
// name was recognized ("" parses as greedy, the default).
func ParseGCPolicy(s string) (GCPolicy, bool) { return gc.ParseKind(s) }

// ArrivalUnbounded is the arrival process that paces a stream by device
// back-pressure only; it schedules identically to a closed-loop thread.
const ArrivalUnbounded = sim.ArrivalUnbounded

// ParseArrival maps "poisson", "fixed" or "unbounded" to an ArrivalKind,
// reporting whether the name was recognized ("" parses as Poisson, the
// open-loop default).
func ParseArrival(s string) (ArrivalKind, bool) { return sim.ParseArrival(s) }

// Scheme identifies one of the reproduced FTL designs.
type Scheme int

// The five schemes of the paper's evaluation (§IV-A).
const (
	SchemeDFTL Scheme = iota
	SchemeTPFTL
	SchemeLeaFTL
	SchemeLearnedFTL
	SchemeIdeal
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeDFTL:
		return "DFTL"
	case SchemeTPFTL:
		return "TPFTL"
	case SchemeLeaFTL:
		return "LeaFTL"
	case SchemeLearnedFTL:
		return "LearnedFTL"
	case SchemeIdeal:
		return "ideal"
	default:
		return "unknown"
	}
}

// Schemes returns all five schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeDFTL, SchemeTPFTL, SchemeLeaFTL, SchemeLearnedFTL, SchemeIdeal}
}

// ParseScheme maps a scheme name to its Scheme case-insensitively ("dftl",
// "LearnedFTL", ...), reporting whether the name was recognized.
func ParseScheme(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if strings.EqualFold(s.String(), name) {
			return s, true
		}
	}
	return 0, false
}

// New builds a device running the given scheme. LearnedFTL reads its design
// switches from cfg.Learned: the paper's design by default, an ablation when
// one is switched off.
func New(s Scheme, cfg Config) (FTL, error) {
	switch s {
	case SchemeDFTL:
		return demand.NewDFTL(cfg)
	case SchemeTPFTL:
		return demand.NewTPFTL(cfg)
	case SchemeLeaFTL:
		return leaftl.New(cfg)
	case SchemeLearnedFTL:
		return core.New(cfg)
	case SchemeIdeal:
		return ftl.NewIdeal(cfg)
	default:
		return nil, fmt.Errorf("learnedftl: unknown scheme %d", s)
	}
}

// Persistence (see internal/persist): device snapshots, OOB crash
// recovery and the warm-checkpoint cache.
type (
	// CheckpointCache is the warm-checkpoint store Budget.Checkpoints and
	// ftlbench -checkpoint-dir use: sweeps restore warmed devices from it
	// instead of re-simulating warm-up, with byte-identical tables.
	CheckpointCache = persist.Cache
)

// NewCheckpointCache opens (creating if needed) a warm-checkpoint
// directory for Budget.Checkpoints.
func NewCheckpointCache(dir string) (*CheckpointCache, error) {
	return persist.NewCache(dir)
}

// SnapshotDevice serializes a device's complete state — flash array, OOB,
// block metadata, L2P, GTD, scheme caches and models, allocator and GC
// state — into a versioned, checksummed, deterministic byte stream.
// Restoring it into a freshly built device of the same scheme and config
// is bit-for-bit equivalent to never having snapshotted. The metrics
// collector is not captured; RestoreDevice returns a device with a fresh
// one, matching what every experiment's measurement reset produces.
func SnapshotDevice(f FTL) ([]byte, error) {
	dev, ok := f.(persist.Device)
	if !ok {
		return nil, fmt.Errorf("learnedftl: %s does not support snapshots", f.Name())
	}
	return persist.Snapshot(dev, persistKey(f.Name(), f.Config())), nil
}

// RestoreDevice rebuilds a device from a SnapshotDevice stream. The scheme
// and configuration, cfg.Learned included, must match the snapshot's;
// mismatches, corruption and format-version changes are all detected and
// returned as errors.
func RestoreDevice(s Scheme, cfg Config, data []byte) (FTL, error) {
	f, err := New(s, cfg)
	if err != nil {
		return nil, err
	}
	dev, ok := f.(persist.Device)
	if !ok {
		return nil, fmt.Errorf("learnedftl: %s does not support snapshots", f.Name())
	}
	if err := persist.Restore(dev, persistKey(f.Name(), f.Config()), data); err != nil {
		return nil, err
	}
	return f, nil
}

// RecoverFromCrash models a power-loss mount: the device's DRAM
// translation state (L2P, GTD, caches, models, allocator views) is
// dropped and rebuilt by the timed out-of-band scan of the flash array —
// the recovery path the paper's OOB reverse mappings exist for. The
// returned result's Makespan is the mount latency; the device is fully
// operational afterwards. See the mountlat experiment.
func RecoverFromCrash(f FTL) (RunResult, error) {
	rec, ok := f.(ftl.CrashRecoverer)
	if !ok {
		return RunResult{}, fmt.Errorf("learnedftl: %s does not support crash recovery", f.Name())
	}
	start := f.Flash().MaxChipBusy()
	done := rec.RecoverFromCrash(start)
	return RunResult{Start: start, End: done}, nil
}

// DeviceFootprint summarizes the resident bytes of the simulated device
// model (packed page metadata, block metadata, chip schedules); see
// nand.Footprint.
type DeviceFootprint = nand.Footprint

// FootprintOf computes a configuration's device-model footprint without
// building the device. cmd/ftlbench records it in the BENCH JSON so the
// perf trajectory captures footprint alongside wall clock.
func FootprintOf(cfg Config) DeviceFootprint {
	return nand.FootprintFor(cfg.Geometry)
}

// AutoWorkers returns the worker count that saturates the machine when set
// as Budget.Workers (GOMAXPROCS). Experiment cells are hermetic and
// deterministically seeded, so any worker count yields byte-identical
// tables; parallelism only changes wall-clock time.
func AutoWorkers() int { return sweep.Auto() }

// BenchResult pairs one experiment's table with its wall-clock cost; the
// slice emitted by RunExperiments is what cmd/ftlbench serializes into
// BENCH_<timestamp>.json.
type BenchResult struct {
	Experiment string  `json:"experiment"`
	Seconds    float64 `json:"seconds"`
	// Warm-up throughput: simulated flash programs issued by this
	// experiment's warm-up phases (cold warm-ups only — checkpoint
	// restores skip the simulation), the wall-clock seconds they took and
	// the resulting Mpg/s. Omitted when every cell restored from a warm
	// checkpoint.
	WarmMpg       float64 `json:"warm_mpg,omitempty"`
	WarmSeconds   float64 `json:"warm_seconds,omitempty"`
	WarmMpgPerSec float64 `json:"warm_mpg_per_sec,omitempty"`
	Table         Table   `json:"table"`
	// Obs carries latbreak's per-cell phase breakdowns (empty for every
	// other experiment), so the BENCH trajectory records where latency
	// goes, not just how much of it there is.
	Obs []ObsCell `json:"obs,omitempty"`
	// Fleet carries the fleet experiment's per-cell array-level aggregates
	// (empty for every other experiment): cross-device wear CV, the
	// failed-device roster and the loss/rebuild tallies per placement ×
	// scenario cell.
	Fleet []FleetCell `json:"fleet,omitempty"`
}

// RunExperiments runs the given experiment ids in order under cfg and b,
// timing each. The cells inside each experiment fan across b.Workers
// goroutines; experiments themselves run sequentially so their wall-clock
// splits stay meaningful.
func RunExperiments(ids []string, cfg Config, b Budget) ([]BenchResult, error) {
	out := make([]BenchResult, 0, len(ids))
	for _, id := range ids {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
		if i < 0 {
			return nil, fmt.Errorf("learnedftl: unknown experiment %q", id)
		}
		r, err := experiments[i].run(cfg, b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// PaperConfig returns the paper's exact device (§IV-A): 64 chips, 32 GiB,
// 40µs/200µs/2ms NAND, 512-entry translation pages, 64-entry GTD groups,
// 8-piece models. Full-scale runs take a while; prefer QuickConfig for
// development.
func PaperConfig() Config {
	return ftl.DefaultConfig(nand.PaperGeometry())
}

// QuickConfig returns a proportionally scaled device (16 chips × 32 blocks ×
// 512 pages = 1 GiB) that preserves the structural ratios that matter —
// a GTD entry group spanning exactly one superblock stripe, 512-entry
// translation pages, spare superblock rows for the group allocator — while
// running experiments in seconds rather than hours. The over-provisioning
// ratio is raised so the scaled device keeps a paper-like relative GC
// reserve despite its coarser superblock granularity.
func QuickConfig() Config {
	g := nand.Geometry{Channels: 4, Ways: 4, Planes: 1, BlocksPerUnit: 32, PagesPerBlock: 512, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	// The group span is sized at 3/4 of a superblock stripe. At paper scale
	// (256 fine-grained rows) the span can equal the stripe because spare
	// rows are plentiful relative to groups; a 30-row device needs the
	// over-provisioning *inside* each group's stripe or group-granular GC
	// degenerates (every group is 100% live and a compaction reclaims
	// nothing). See EXPERIMENTS.md, "scaled-device adaptations".
	cfg.GroupEntries = 12 // span 12×512 = 6144 of the 8192-page stripe
	cfg.OPRatio = 0.35
	return cfg
}

// TinyConfig returns the smallest structurally faithful device; it is meant
// for tests and the package examples.
func TinyConfig() Config {
	g := nand.Geometry{Channels: 8, Ways: 8, Planes: 1, BlocksPerUnit: 16, PagesPerBlock: 64, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 64
	cfg.GroupEntries = 56 // span 3584 of the 4096-page stripe (see QuickConfig)
	cfg.OPRatio = 0.40
	return cfg
}
