package learnedftl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"learnedftl/internal/fleet"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/workload"
)

// fleetTestBudget is TinyBudget cut to 1 200 requests over 8 threads: the
// fleet experiment drives eight devices per policy, and this size keeps the
// fleet tests fast while still exercising GC and the failure path.
func fleetTestBudget(workers int) Budget {
	b := TinyBudget()
	b.Requests, b.Threads, b.Workers = 1200, 8, workers
	return b
}

// fleetTestStreams is a small deterministic two-tenant mix over lp pages.
func fleetTestStreams(lp int64) []sim.Stream {
	return append(
		workload.OpenFIO("reads", workload.RandRead, lp, 1, 2, 400, sim.ArrivalPoisson, 40000, 11),
		workload.OpenFIO("writes", workload.RandWrite, lp, 8, 2, 200, sim.ArrivalPoisson, 8000, 13)...)
}

// TestFleetPassthroughMatchesOpenLoop is the byte-identity bar of the fleet
// layer: a 1-device array is a passthrough, so driving a device through it
// must leave the device in exactly the state — snapshot byte for byte —
// that sim.RunOpenWith leaves an identically-built device in, with the
// engine observing the same completions. All five schemes, both single-copy
// policies.
func TestFleetPassthroughMatchesOpenLoop(t *testing.T) {
	cfg := TinyConfig()
	b := fleetTestBudget(1)
	for _, s := range Schemes() {
		for _, pol := range []fleet.Policy{fleet.Striping, fleet.Hash} {
			direct, err := newWarmed(s, cfg, b)
			if err != nil {
				t.Fatalf("%v: newWarmed: %v", s, err)
			}
			arrDev, err := newWarmed(s, cfg, b)
			if err != nil {
				t.Fatalf("%v: newWarmed: %v", s, err)
			}
			lay, err := fleet.NewLayout(fleet.Config{Devices: 1, Policy: pol}, arrDev.Config().LogicalPages())
			if err != nil {
				t.Fatalf("%v/%s: NewLayout: %v", s, pol, err)
			}
			arr, err := fleet.NewArray(lay, []FTL{arrDev})
			if err != nil {
				t.Fatalf("%v/%s: NewArray: %v", s, pol, err)
			}
			// The 1-device layout is the identity map over the device's
			// stripe-aligned capacity; both runs replay the same streams over
			// that same space.
			lp := arr.Layout().LogicalPages
			opt := sim.OpenOptions{BackgroundGC: true}
			resA := sim.RunOpenWith(direct, fleetTestStreams(lp), opt)
			resB := sim.RunOpenTarget(arr, fleetTestStreams(lp), opt)
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("%v/%s: results diverged: direct %+v, fleet %+v", s, pol, resA, resB)
			}
			snapA, errA := SnapshotDevice(direct)
			snapB, errB := SnapshotDevice(arrDev)
			if errA != nil || errB != nil {
				t.Fatalf("%v/%s: snapshot: %v / %v", s, pol, errA, errB)
			}
			if !bytes.Equal(snapA, snapB) {
				t.Fatalf("%v/%s: device state diverged through the passthrough array (%d vs %d bytes)",
					s, pol, len(snapA), len(snapB))
			}
		}
	}
}

// TestFleetWarmSharing pins the checkpoint-shared warm-up: every device of
// a warmed fleet is a byte-identical clone of the first, so N devices cost
// one warm-up.
func TestFleetWarmSharing(t *testing.T) {
	cfg := TinyConfig()
	devs, err := (&cell{b: fleetTestBudget(1)}).warmedFleet(SchemeLearnedFTL, cfg, 3)
	if err != nil {
		t.Fatalf("warmedFleet: %v", err)
	}
	ref, err := SnapshotDevice(devs[0])
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for i, f := range devs[1:] {
		snap, err := SnapshotDevice(f)
		if err != nil {
			t.Fatalf("snapshot clone %d: %v", i+1, err)
		}
		if !bytes.Equal(ref, snap) {
			t.Fatalf("clone %d diverged from the warmed original (%d vs %d bytes)", i+1, len(ref), len(snap))
		}
	}
}

// TestFleetBenchJSON pins the BENCH JSON surface: the fleet experiment's
// per-cell aggregates ride in BenchResult.Fleet, exposing wear_cv_devices
// and the per-device failure roster.
func TestFleetBenchJSON(t *testing.T) {
	cfg := TinyConfig()
	results, err := RunExperiments([]string{"fleet"}, cfg, fleetTestBudget(2))
	if err != nil {
		t.Fatalf("RunExperiments: %v", err)
	}
	if want := len(fleet.Policies()) * len(fleetScenarios); len(results) != 1 || len(results[0].Fleet) != want {
		t.Fatalf("want 1 result with %d fleet cells (policies x scenarios), got %+v", want, results)
	}
	sawFailure := false
	for _, c := range results[0].Fleet {
		if c.Devices != fleetDevices {
			t.Errorf("cell %s/%s: Devices = %d, want %d", c.Policy, c.Scenario, c.Devices, fleetDevices)
		}
		if len(c.Tenants) == 0 {
			t.Errorf("cell %s/%s: no per-tenant reports", c.Policy, c.Scenario)
		}
		if c.Scenario == "failure" {
			sawFailure = true
			if len(c.Failed) != 1 || c.Failed[0].Device != 1 {
				t.Errorf("cell %s failure: Failed = %+v, want device 1", c.Policy, c.Failed)
			}
			if c.Policy == string(fleet.Striping) && c.LostUnits == 0 {
				t.Errorf("striping failure lost no units")
			}
			if c.Policy == string(fleet.Replicate) && c.LostRequests != 0 {
				t.Errorf("replicate failure lost %d requests", c.LostRequests)
			}
		}
	}
	if !sawFailure {
		t.Fatal("no failure cells in the fleet BENCH output")
	}
	blob, err := json.Marshal(results)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{`"wear_cv_devices"`, `"fleet"`, `"policy"`} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("BENCH JSON missing %s", key)
		}
	}
}

// TestWearCVAcrossDevices pins the fleet wear statistic's edge cases.
func TestWearCVAcrossDevices(t *testing.T) {
	if cv := stats.WearCVAcrossDevices([]int64{100}); cv != 0 {
		t.Errorf("1-device CV = %v, want 0", cv)
	}
	if cv := stats.WearCVAcrossDevices([]int64{50, 50, 50}); cv != 0 {
		t.Errorf("uniform CV = %v, want 0", cv)
	}
	if cv := stats.WearCVAcrossDevices([]int64{0, 100}); cv != 1 {
		t.Errorf("max-skew CV = %v, want 1", cv)
	}
}
