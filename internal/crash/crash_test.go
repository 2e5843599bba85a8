package crash

import (
	"maps"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

func testConfig() ftl.Config {
	g := nand.Geometry{Channels: 2, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 32
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.25
	cfg.GCLowWater = 3
	return cfg
}

// testGens returns the deterministic window workload: a sequential fill of
// the whole logical space followed by seeded random overwrites and a few
// trims — enough churn to run GC inside the window.
func testGens(cfg ftl.Config, overwrites int) []sim.Generator {
	lp := cfg.LogicalPages()
	fill := int64(0)
	state := uint64(0x9E3779B97F4A7C15)
	n := 0
	return []sim.Generator{sim.GenFunc(func() (sim.Request, bool) {
		if fill < lp {
			r := sim.Request{Write: true, LPN: fill, Pages: 1}
			fill++
			return r, true
		}
		if n >= overwrites {
			return sim.Request{}, false
		}
		n++
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		lpn := int64(state % uint64(lp))
		if n%37 == 0 {
			return sim.Request{Trim: true, LPN: lpn, Pages: 1}, true
		}
		return sim.Request{Write: true, LPN: lpn, Pages: 1}, true
	})}
}

func newIdealRun(t *testing.T) (Device, []sim.Generator, error) {
	cfg := testConfig()
	f, err := ftl.NewIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, testGens(cfg, 600), nil
}

func TestInjectFiresAndRecoversClean(t *testing.T) {
	for _, k := range []int64{1, 7, 101, 503, 997} {
		dev, gens, _ := newIdealRun(t)
		out := Inject(dev, gens, 0, Plan{AtOp: k})
		if !out.Fired {
			t.Fatalf("cut at op %d did not fire", k)
		}
		if out.Cut.Op != k {
			t.Fatalf("cut fired at op %d, armed for %d", out.Cut.Op, k)
		}
		if !out.OK() {
			t.Fatalf("cut at op %d: lost acked %d, violations %v", k, out.LostAcked, out.Violations)
		}
		if k > 1 && out.AckedWrites == 0 {
			t.Fatalf("cut at op %d recorded no acked writes", k)
		}
		if out.MountLatency <= 0 {
			t.Fatalf("cut at op %d: mount latency %d", k, out.MountLatency)
		}
	}
}

func TestInjectTornProgram(t *testing.T) {
	torn := 0
	for k := int64(1); k <= 40; k += 3 {
		dev, gens, _ := newIdealRun(t)
		out := Inject(dev, gens, 0, Plan{AtOp: k, Torn: true})
		if !out.Fired {
			t.Fatalf("cut at op %d did not fire", k)
		}
		if !out.OK() {
			t.Fatalf("torn cut at op %d: lost acked %d, violations %v", k, out.LostAcked, out.Violations)
		}
		if out.Cut.Torn {
			torn++
			if out.Scan.TornDiscarded != 1 {
				t.Fatalf("torn cut at op %d: scan discarded %d torn pages, want 1", k, out.Scan.TornDiscarded)
			}
			if dev.Flash().State(out.Cut.PPN) != nand.PageInvalid {
				t.Fatalf("torn page %d recovered as %v, want invalid", out.Cut.PPN, dev.Flash().State(out.Cut.PPN))
			}
		}
	}
	if torn == 0 {
		t.Fatal("no enumerated cut landed on a program")
	}
}

func TestInjectAtVirtualTime(t *testing.T) {
	dev, gens, _ := newIdealRun(t)
	at := 5 * nand.Millisecond
	out := Inject(dev, gens, 0, Plan{AtTime: at})
	if !out.Fired {
		t.Fatal("time-armed cut did not fire")
	}
	if out.Cut.Time < at {
		t.Fatalf("cut fired at t=%d, armed for t>=%d", out.Cut.Time, at)
	}
	if !out.OK() {
		t.Fatalf("lost acked %d, violations %v", out.LostAcked, out.Violations)
	}
}

func TestInjectWindowEndsUncut(t *testing.T) {
	dev, gens, _ := newIdealRun(t)
	out := Inject(dev, gens, 50, Plan{AtOp: 1 << 40})
	if out.Fired {
		t.Fatal("cut fired beyond the window")
	}
	if dev.Flash().CutArmed() {
		t.Fatal("cut left armed after an uncut window")
	}
}

func TestCampaignIdealClean(t *testing.T) {
	newRun := func() (Device, []sim.Generator, error) { return newIdealRun(t) }
	res, err := RunCampaign(newRun, CampaignConfig{Stride: 137, Fuzz: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowErases == 0 {
		t.Fatal("probe window ran no GC; campaign must cover a write+GC-heavy window")
	}
	if !res.OK() {
		t.Fatalf("campaign not clean: lost acked %d, not fired %d, violations %v",
			res.LostAcked, res.NotFired, res.Violations)
	}
	if res.Fired != res.Points {
		t.Fatalf("fired %d of %d points", res.Fired, res.Points)
	}
	if res.Recovered != res.Fired {
		t.Fatalf("recovered %d of %d fired", res.Recovered, res.Fired)
	}
	if res.TornCuts == 0 {
		t.Fatal("no torn cut in the campaign")
	}
	if res.MountMax < res.MountMean() || res.MountMean() <= 0 {
		t.Fatalf("mount latency aggregation broken: mean %d max %d", res.MountMean(), res.MountMax)
	}
}

// TestVerifyCatchesCorruption seeds three distinct invariant breaches into
// an otherwise clean recovered device and checks the verifier reports them
// — the negative control proving a green campaign is a real result.
func TestVerifyCatchesCorruption(t *testing.T) {
	dev, gens, _ := newIdealRun(t)
	sim.Run(dev, gens, 0)
	dev.RecoverFromCrash(dev.Flash().MaxChipBusy())

	var out Outcome
	Verify(dev, NewOracle(dev.Config().LogicalPages()), nil, &out)
	if len(out.Violations) != 0 {
		t.Fatalf("clean recovery reports violations: %v", out.Violations)
	}

	// Breach 1: a mapped page invalidated behind the L2P's back.
	shadow := dev.ShadowL2P()
	var lpn int64 = -1
	for l, p := range shadow {
		if p != nand.InvalidPPN {
			lpn = int64(l)
			break
		}
	}
	if lpn < 0 {
		t.Fatal("no mapped LPN after recovery")
	}
	if err := dev.Flash().Invalidate(shadow[lpn]); err != nil {
		t.Fatal(err)
	}
	out = Outcome{}
	Verify(dev, NewOracle(dev.Config().LogicalPages()), nil, &out)
	if len(out.Violations) == 0 {
		t.Fatal("verifier missed an L2P entry pointing at an invalid page")
	}

	// Breach 2: an acked write the recovered map lacks.
	o := NewOracle(dev.Config().LogicalPages())
	o.Ack(sim.Request{Write: true, LPN: lpn, Pages: 1}, 0)
	dev.RecoverFromCrash(dev.Flash().MaxChipBusy()) // heals breach 1's map view
	shadow = dev.ShadowL2P()
	if shadow[lpn] != nand.InvalidPPN {
		t.Fatalf("LPN %d still mapped after its only copy was invalidated", lpn)
	}
	out = Outcome{}
	Verify(dev, o, nil, &out)
	if out.LostAcked != 1 {
		t.Fatalf("verifier counted %d lost acked writes, want 1", out.LostAcked)
	}

	// Breach 3: the same loss with the LPN exempted (a volatile buffer).
	out = Outcome{}
	Verify(dev, o, map[int64]struct{}{lpn: {}}, &out)
	if out.LostAcked != 0 {
		t.Fatalf("exempt LPN still counted lost (%d)", out.LostAcked)
	}
}

// TestInFlightAtCutIsTheIssuingRequest: the engine fetches a request the
// moment it issues it, so when power dies the oracle's in-flight set holds
// exactly the pages of the request being issued — nothing fetched ahead
// for another source. Four sources write disjoint LPN ranges, driven as
// closed-loop threads and as Poisson open-loop streams.
func TestInFlightAtCutIsTheIssuingRequest(t *testing.T) {
	const sources, pages, perSource = 4, 2, 300
	cfg := testConfig()
	span := cfg.LogicalPages() / sources
	for _, open := range []bool{false, true} {
		for _, at := range []int64{5, 97, 211, 503} {
			f, err := ftl.NewIdeal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := NewOracle(cfg.LogicalPages())
			var issuing sim.Request
			gens := make([]sim.Generator, sources)
			for i := range gens {
				base, n := int64(i)*span, int64(0)
				gens[i] = o.Tap(sim.GenFunc(func() (sim.Request, bool) {
					if n == perSource {
						return sim.Request{}, false
					}
					issuing = sim.Request{Write: true, LPN: base + n*pages%(span-pages+1), Pages: pages}
					n++
					return issuing, true
				}))
			}
			run := func() { sim.RunAcked(f, gens, 0, o.Ack) }
			if open {
				streams := make([]sim.Stream, sources)
				for i, g := range gens {
					streams[i] = sim.Stream{Name: "w", Gen: g, Kind: sim.ArrivalPoisson, Rate: 2e4, Seed: int64(i)}
				}
				run = func() { sim.RunOpenWith(f, streams, sim.OpenOptions{AckSink: o.Ack}) }
			}
			out := inject(f, Plan{AtOp: at}, o, run)
			if !out.Fired || !out.OK() {
				t.Fatalf("open=%v cut at op %d: fired %v, lost acked %d, violations %v", open, at, out.Fired, out.LostAcked, out.Violations)
			}
			want := map[int64]int32{}
			for k := int64(0); k < pages; k++ {
				want[issuing.LPN+k] = 1
			}
			got := map[int64]int32{}
			for lpn, n := range o.inflight {
				if n != 0 {
					got[int64(lpn)] = n
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("open=%v cut at op %d: in flight %v, want the issuing request's pages %v", open, at, got, want)
			}
		}
	}
}
