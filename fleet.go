package learnedftl

// The fleet experiment — per-tenant tail latency and cross-device wear
// imbalance versus placement policy on a multi-device array, with a mid-run
// device failure + rebuild scenario beside the healthy baseline — and the
// checkpoint-shared fleet warm-up it runs on.

import (
	"fmt"
	"strings"

	"learnedftl/internal/fleet"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/sweep"
	"learnedftl/internal/workload"
)

// warmedFleet builds n identical warmed devices sharing one warm-up:
// device 0 comes from warmed — checkpoint-cache aware — and the remaining
// n-1 are restored from its bit-exact in-memory snapshot instead of
// re-simulating n warm-ups.
func (c *cell) warmedFleet(s Scheme, cfg Config, n int) ([]FTL, error) {
	f0, err := c.warmed(s, cfg)
	if err != nil {
		return nil, err
	}
	snap, err := SnapshotDevice(f0)
	if err != nil {
		return nil, err
	}
	devs := []FTL{f0}
	for len(devs) < n {
		f, err := RestoreDevice(s, cfg, snap)
		if err != nil {
			return nil, err
		}
		devs = append(devs, f)
	}
	return devs, nil
}

// FleetCell is one fleet-experiment measurement in the BENCH JSON: the
// placement × scenario cell's fleet-level aggregates — cross-device wear
// imbalance, the failed-device roster and the loss/rebuild tallies —
// alongside the per-tenant latency summaries.
type FleetCell struct {
	Policy        string               `json:"policy"`
	Scenario      string               `json:"scenario"`
	Devices       int                  `json:"devices"`
	WearCVDevices float64              `json:"wear_cv_devices"`
	Failed        []stats.FleetFailure `json:"failed,omitempty"`
	LostRequests  int64                `json:"lost_requests,omitempty"`
	LostUnits     int64                `json:"lost_units,omitempty"`
	RebuiltUnits  int64                `json:"rebuilt_units,omitempty"`
	PendingUnits  int64                `json:"pending_units,omitempty"`
	Tenants       []stats.StreamReport `json:"tenants,omitempty"`
}

// fleetPolicyList resolves the budget's placement subset, erroring on
// typos so a misspelled policy never silently collapses the sweep.
func (b Budget) fleetPolicyList() ([]fleet.Policy, error) {
	return sweep.ParseList(b.FleetPlacement, "placement policy", fleet.Policies(), fleet.ParsePolicy)
}

// fleetScenarios are the two columns of the fleet experiment: the healthy
// baseline and a mid-run device failure with rebuild.
var fleetScenarios = []string{"healthy", "failure"}

// fleetUtil is the fleet experiment's utilization factor: enough headroom
// that a replicated 8-device array can fully re-home a dead device's units
// onto survivors (needs Util <= (N-1)/N).
const fleetUtil = 0.70

// fleetWidth is the fleet experiment's array width: Budget.FleetDevices,
// 8 by default.
func fleetWidth(b Budget) int {
	if b.FleetDevices == 0 {
		return 8
	}
	return b.FleetDevices
}

// fleetGrid measures a multi-device array under skewed two-tenant load for
// every placement policy, healthy and with device 1 killed halfway through
// the run: per-tenant P99/P99.9 cross-device latency, queue-wait share,
// the wear-imbalance CV across devices, and the failure's blast radius
// (lost requests under the single-copy policies, rebuild progress under
// replication — rebuild traffic runs in idle gaps and competes with the
// foreground tenants). All devices run LearnedFTL and share one warm-up
// via snapshot cloning. Budget.FleetDevices sets the array width (default
// 8), Budget.FleetPlacement narrows the policies, Budget.FleetReplicas the
// copy count (default 2), Budget.OfferedIOPS the operating point.
func fleetGrid(cfg Config, b Budget) ([]int, cellFunc, error) {
	n := fleetWidth(b)
	if n < 1 {
		return nil, nil, fmt.Errorf("learnedftl: fleet needs >= 1 device, got %d", n)
	}
	k := b.FleetReplicas
	if k == 0 {
		k = 2
	}
	policies, err := b.fleetPolicyList()
	if err != nil {
		return nil, nil, err
	}
	kind, err := b.openLoopKind()
	if err != nil {
		return nil, nil, err
	}
	threads := max(2, b.Threads)
	return []int{len(policies), len(fleetScenarios)}, func(c *cell) error {
		pol, scenario := policies[c.at[0]], fleetScenarios[c.at[1]]
		devs, err := c.warmedFleet(SchemeLearnedFTL, cfg, n)
		if err != nil {
			return err
		}
		lay, err := fleet.NewLayout(fleet.Config{
			Devices: n, Policy: pol, Replicas: k, Util: fleetUtil,
		}, devs[0].Config().LogicalPages())
		if err != nil {
			return err
		}
		arr, err := fleet.NewArray(lay, devs)
		if err != nil {
			return err
		}
		if scenario == "failure" {
			if err := arr.ScheduleFailure(1, int64(b.Requests)/2, "injected mid-run fault"); err != nil {
				return err
			}
		}
		// Operating point: a quarter of the ideal request rate at the run's
		// concurrency, priced through the mix's per-request service demand
		// (the tenantmix idiom — 8-page writes cost far more than 1-page
		// reads, and pricing everything at read latency would put the write
		// tenant in deep overload with no idle gaps left for background GC
		// or rebuild). The array multiplies the chip budget, so the rate
		// scales with the device count until streams are the bottleneck.
		total := b.OfferedIOPS
		if total <= 0 {
			conc := min(threads, n*cfg.Geometry.Chips())
			demand := 0.7*float64(cfg.Timing.ReadLatency) +
				0.3*8*float64(cfg.Timing.ProgramLatency)
			total = 0.25 * float64(conc) * float64(nand.Second) / demand
		}
		// Skewed two-tenant load over the fleet's logical space: a hot
		// read tenant over the leading quarter (placement skew shows up as
		// cross-device wear and queue imbalance) and a write tenant over
		// the whole space (8-page requests span stripe units, exercising
		// fan-out and replication write costs).
		lp := arr.Layout().LogicalPages
		spt, per := threads/2, perThread(b.Requests, threads)
		hot := max(1, lp/4)
		streams := append(
			workload.OpenFIO("hotread", workload.RandRead, hot, 1, spt, per, kind, 0.7*total, 5557),
			workload.OpenFIO("write", workload.RandWrite, lp, 8, spt, per, kind, 0.3*total, 5659)...)
		for _, f := range devs {
			f.Collector().Reset()
			f.Flash().ResetCounters()
		}
		res := sim.RunOpenTarget(arr, streams, sim.OpenOptions{BackgroundGC: true})
		var sum nand.OpCounters
		devReports := make([]stats.Report, n)
		for j, f := range devs {
			sum.Add(f.Flash().Counters())
			devReports[j] = report(f, res)
		}
		host := stats.BuildReport("fleet/"+string(pol), arr.Collector(), sum,
			res.Makespan(), cfg.Geometry.PageSize, cfg.Energy)
		fr := stats.AggregateFleet(host, devReports)
		failed := "-"
		if len(fr.Failed) > 0 {
			names := make([]string, len(fr.Failed))
			for j, df := range fr.Failed {
				names[j] = fmt.Sprintf("dev%d", df.Device)
			}
			failed = strings.Join(names, "+")
		}
		rebuilt := "-"
		if pol == fleet.Replicate && scenario == "failure" {
			rebuilt = fmt.Sprintf("%d/%d", arr.Rebuilt(), arr.Rebuilt()+arr.PendingRebuild())
		}
		for _, sr := range fr.Host.Streams[:min(len(fr.Host.Streams), 2)] {
			c.row(string(pol), scenario, sr.Name,
				fmt.Sprint(sr.Requests), lat(sr.P99), lat(sr.P999), pct(sr.WaitShare),
				f2(fr.WearCVDevices), failed,
				fmt.Sprint(arr.LostRequests()), rebuilt)
		}
		c.fleet = append(c.fleet, FleetCell{
			Policy:        string(pol),
			Scenario:      scenario,
			Devices:       n,
			WearCVDevices: fr.WearCVDevices,
			Failed:        fr.Failed,
			LostRequests:  arr.LostRequests(),
			LostUnits:     arr.LostUnits(),
			RebuiltUnits:  arr.Rebuilt(),
			PendingUnits:  arr.PendingRebuild(),
			Tenants:       fr.Host.Streams,
		})
		return nil
	}, nil
}
