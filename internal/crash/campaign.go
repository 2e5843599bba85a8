package crash

import (
	"fmt"
	"math/rand"

	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// A campaign enumerates about targetEnum operation ordinals evenly
// through the window, whatever its operation count, and injects each
// twice: once completing the fatal program, once tearing it. It retains
// the first maxViolations breach messages; the counters always cover
// everything.
const (
	targetEnum    = 24
	maxViolations = 8
)

// CampaignConfig tunes a crash campaign.
type CampaignConfig struct {
	// Fuzz adds this many seeded random crash points (ordinal and torn
	// flag drawn from Seed) on top of the enumeration.
	Fuzz int
	// Seed seeds the fuzz draw; same seed, same crash points.
	Seed int64
}

// CampaignResult aggregates one campaign.
type CampaignResult struct {
	// WindowOps is the flash-operation count of the uncut probe run — the
	// space of enumerable crash ordinals. WindowErases is its erase count
	// (nonzero means the window really exercised GC).
	WindowOps    int64
	WindowErases int64
	// Points is the number of injected crash points; Fired of them cut
	// inside the window (NotFired should be zero when every ordinal is in
	// range), and Recovered of the fired ones verified clean.
	Points    int
	Fired     int
	NotFired  int
	Recovered int
	// TornCuts counts fired cuts that tore the in-flight program.
	TornCuts int
	// LostAcked, TornDiscarded and LostMappings sum the per-outcome
	// counters across all fired points.
	LostAcked     int64
	TornDiscarded int64
	LostMappings  int64
	// MountTotal and MountMax aggregate recovery scan latency.
	MountTotal nand.Time
	MountMax   nand.Time
	// Violations holds the first maxViolations breach messages, each
	// prefixed with its crash point.
	Violations []string
}

// MountMean returns the mean recovery latency across fired points.
func (r CampaignResult) MountMean() nand.Time {
	if r.Fired == 0 {
		return 0
	}
	return r.MountTotal / nand.Time(r.Fired)
}

// OK reports a fully clean campaign.
func (r CampaignResult) OK() bool {
	return r.LostAcked == 0 && len(r.Violations) == 0 && r.NotFired == 0
}

// RunCampaign enumerates crash points through one deterministic workload
// window. newRun must return an identically prepared device and generator
// set on every call (restore from a snapshot); the first run probes the
// window uncut to size the ordinal space, then each crash point replays
// the window from scratch with a cut armed. Determinism of the engine
// makes op ordinal k hit the same operation in every replay.
func RunCampaign(newRun func() (Device, []sim.Generator, error), cfg CampaignConfig) (CampaignResult, error) {
	var res CampaignResult
	dev, gens, err := newRun()
	if err != nil {
		return res, err
	}
	before := dev.Flash().Counters()
	sim.Run(dev, gens, 0)
	after := dev.Flash().Counters()
	res.WindowOps = after.TotalReads() - before.TotalReads() +
		after.TotalPrograms() - before.TotalPrograms() +
		after.Erases - before.Erases
	res.WindowErases = after.Erases - before.Erases
	if res.WindowOps == 0 {
		return res, fmt.Errorf("crash: probe run issued no flash operations")
	}
	point := func(p Plan) error {
		dev, gens, err := newRun()
		if err != nil {
			return err
		}
		out := Inject(dev, gens, p)
		res.Points++
		if !out.Fired {
			res.NotFired++
			return nil
		}
		res.Fired++
		if out.OK() {
			res.Recovered++
		}
		if out.Cut.Torn {
			res.TornCuts++
		}
		res.LostAcked += out.LostAcked
		res.TornDiscarded += out.Scan.TornDiscarded
		res.LostMappings += out.Scan.LostMappings
		res.MountTotal += out.MountLatency
		if out.MountLatency > res.MountMax {
			res.MountMax = out.MountLatency
		}
		for _, v := range out.Violations {
			if len(res.Violations) < maxViolations {
				res.Violations = append(res.Violations,
					fmt.Sprintf("op %d torn=%v: %s", out.Cut.Op, p.Torn, v))
			}
		}
		return nil
	}
	stride := max(1, res.WindowOps/targetEnum)
	for k := int64(1); k <= res.WindowOps; k += stride {
		if err := point(Plan{AtOp: k}); err != nil {
			return res, err
		}
		if err := point(Plan{AtOp: k, Torn: true}); err != nil {
			return res, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Fuzz; i++ {
		k := 1 + rng.Int63n(res.WindowOps)
		if err := point(Plan{AtOp: k, Torn: rng.Intn(2) == 1}); err != nil {
			return res, err
		}
	}
	return res, nil
}
