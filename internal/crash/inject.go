package crash

import (
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// Inject arms plan on dev's flash array, replays gens through the
// closed-loop engine, and — if the cut fires inside the window —
// power-cycles the device, recovers it and verifies the recovery
// invariants. When the window ends without the cut firing, the returned
// Outcome has Fired=false and the (disarmed) device is left as the run
// left it.
func Inject(dev Device, gens []sim.Generator, maxRequests int64, plan Plan) Outcome {
	o := NewOracle(dev.Config().LogicalPages())
	tapped := make([]sim.Generator, len(gens))
	for i, g := range gens {
		tapped[i] = o.Tap(g)
	}
	return inject(dev, plan, o, func() {
		sim.RunAcked(dev, tapped, maxRequests, o.Ack)
	})
}

// inject is the engine-agnostic harness body: arm, run to the cut,
// power-cycle, recover, verify.
func inject(dev Device, plan Plan, o *Oracle, run func()) Outcome {
	fl := dev.Flash()
	fl.ArmCut(plan.AtOp, plan.AtTime, plan.Torn)
	cut, fired := runToCut(run)
	if !fired {
		fl.DisarmCut()
		return Outcome{Fired: false, AckedWrites: o.AckedWrites()}
	}
	// The volatile-buffer exemption must be captured before recovery wipes
	// the buffer: these LPNs were acked under write-back semantics, so
	// their loss is not a durability violation. The exemption is a superset
	// of what was actually lost (an LPN both buffered and previously
	// flashed may well survive), which only weakens the check for those
	// LPNs, never flags a false positive.
	var exempt map[int64]struct{}
	if vb, ok := dev.(VolatileBuffer); ok {
		lpns := vb.BufferedLPNs()
		exempt = make(map[int64]struct{}, len(lpns))
		for _, lpn := range lpns {
			exempt[lpn] = struct{}{}
		}
	}
	fl.PowerCycle(cut.Time)
	done := dev.RecoverFromCrash(cut.Time)
	out := Outcome{
		Fired:        true,
		Cut:          cut,
		AckedWrites:  o.AckedWrites(),
		Exempt:       len(exempt),
		MountLatency: done - cut.Time,
		Scan:         dev.MountScanStats(),
	}
	Verify(dev, o, exempt, &out)
	return out
}

// runToCut runs the workload, converting a PowerCut panic into a return
// value. Any other panic propagates: only power cuts are expected.
func runToCut(run func()) (cut nand.PowerCut, fired bool) {
	defer func() {
		if r := recover(); r != nil {
			pc, ok := r.(nand.PowerCut)
			if !ok {
				panic(r)
			}
			cut, fired = pc, true
		}
	}()
	run()
	return
}
