package nand

import "testing"

// catchCut runs fn and returns the PowerCut it panics with, failing the
// test if no cut fires or a different panic escapes.
func catchCut(t *testing.T, fn func()) (cut PowerCut) {
	t.Helper()
	fired := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				pc, ok := r.(PowerCut)
				if !ok {
					panic(r)
				}
				cut, fired = pc, true
			}
		}()
		fn()
	}()
	if !fired {
		t.Fatal("armed cut did not fire")
	}
	return cut
}

func TestCutAtOpOrdinal(t *testing.T) {
	f := newTestFlash(t)
	for i := 0; i < 4; i++ {
		if _, err := f.Program(PPN(i), OOB{Key: int64(i)}, 0, OpHostData); err != nil {
			t.Fatal(err)
		}
	}
	f.ArmCut(3, 0, false)
	cut := catchCut(t, func() {
		f.Read(PPN(0), 0, OpHostData) // op 1
		f.Read(PPN(1), 0, OpHostData) // op 2
		f.Read(PPN(2), 0, OpHostData) // op 3 — dies
		t.Fatal("read past the armed ordinal executed")
	})
	if cut.Op != 3 || cut.Type != OpRead || cut.PPN != 2 || cut.Torn {
		t.Fatalf("cut = %+v, want op 3 read of page 2", cut)
	}
	if f.Counters().Reads[OpHostData] != 2 {
		t.Fatalf("fatal read was counted: %d host reads", f.Counters().Reads[OpHostData])
	}
}

func TestCutAtVirtualTime(t *testing.T) {
	f := newTestFlash(t)
	if _, err := f.Program(PPN(0), OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
	at := 10 * Microsecond
	f.ArmCut(0, at, false)
	f.Read(PPN(0), at-1, OpHostData) // before the deadline: survives
	cut := catchCut(t, func() { f.Read(PPN(0), at, OpHostData) })
	if cut.Time != at || cut.Type != OpRead {
		t.Fatalf("cut = %+v, want read at t=%d", cut, at)
	}
}

func TestCutCompletedProgramLeavesPageValid(t *testing.T) {
	f := newTestFlash(t)
	f.ArmCut(1, 0, false)
	cut := catchCut(t, func() { f.Program(PPN(0), OOB{Key: 7}, 0, OpHostData) })
	if cut.Type != OpProgram || cut.Torn {
		t.Fatalf("cut = %+v, want completed program", cut)
	}
	if cut.Time != f.Timing().ProgramLatency {
		t.Fatalf("completed-program cut at t=%d, want the program's completion %d", cut.Time, f.Timing().ProgramLatency)
	}
	// Power lasted long enough to finish the program: the page is fully
	// there, only the FTL's DRAM update was lost.
	if f.State(PPN(0)) != PageValid || f.PageOOB(PPN(0)).Key != 7 {
		t.Fatalf("state=%v oob=%+v after completed-program cut", f.State(PPN(0)), f.PageOOB(PPN(0)))
	}
	if f.Counters().Programs[OpHostData] != 1 {
		t.Fatalf("completed fatal program not counted: %d", f.Counters().Programs[OpHostData])
	}
}

func TestCutTornProgram(t *testing.T) {
	f := newTestFlash(t)
	f.ArmCut(1, 0, true)
	cut := catchCut(t, func() { f.Program(PPN(0), OOB{Key: 9}, 0, OpHostData) })
	if cut.Type != OpProgram || !cut.Torn || cut.PPN != 0 {
		t.Fatalf("cut = %+v, want torn program of page 0", cut)
	}
	p := PPN(0)
	if f.State(p) != PageInvalid {
		t.Fatalf("torn page state = %v, want invalid (programmed, never valid)", f.State(p))
	}
	if !f.IsTorn(p) {
		t.Fatal("torn page not in roster")
	}
	if f.BlockWritePtr(0) != 1 {
		t.Fatalf("torn program writePtr = %d, want 1 (the page is consumed)", f.BlockWritePtr(0))
	}
	if f.Counters().Programs[OpHostData] != 0 {
		t.Fatalf("torn program counted as completed: %d", f.Counters().Programs[OpHostData])
	}
	// The torn page reads uncorrectable with no fault model attached.
	f.PowerCycle(cut.Time)
	_, out := f.ReadChecked(p, cut.Time, OpMount)
	if !out.Uncorrectable {
		t.Fatal("torn page read corrected")
	}
	// Read is ReadChecked without the verdict: a torn page costs both the
	// same, and with a model attached both walk its whole retry ladder and
	// count one uncorrectable read.
	tm := f.Timing()
	for _, steps := range []int{0, 4} {
		if steps > 0 {
			f.SetFaultModel(ladderStub{steps: steps})
		}
		want := cut.Time + tm.ReadLatency + Time(steps)*tm.RetryLatency
		for name, read := range map[string]func() Time{
			"Read": func() Time { return f.Read(p, cut.Time, OpHostData) },
			"ReadChecked": func() Time {
				done, _ := f.ReadChecked(p, cut.Time, OpHostData)
				return done
			},
		} {
			f.PowerCycle(cut.Time)
			before := f.RelCounters()
			if done := read(); done != want {
				t.Fatalf("%s of the torn page with a %d-step ladder done at %d, want %d", name, steps, done, want)
			}
			rel := f.RelCounters()
			if steps > 0 && (rel.Retries-before.Retries != int64(steps) || rel.Uncorrectable-before.Uncorrectable != 1) {
				t.Fatalf("%s of the torn page with a %d-step ladder tallied %+v, from %+v", name, steps, rel, before)
			}
		}
	}
	f.SetFaultModel(nil)
	// The next in-order program lands above the torn page.
	if _, err := f.Program(PPN(1), OOB{Key: 10}, cut.Time, OpHostData); err != nil {
		t.Fatal(err)
	}
}

func TestEraseClearsTornRoster(t *testing.T) {
	f := newTestFlash(t)
	f.ArmCut(1, 0, true)
	cut := catchCut(t, func() { f.Program(PPN(0), OOB{}, 0, OpHostData) })
	f.PowerCycle(cut.Time)
	if len(f.TornPages()) != 1 {
		t.Fatalf("torn roster = %v, want one page", f.TornPages())
	}
	if _, err := f.Erase(0, cut.Time); err != nil {
		t.Fatal(err)
	}
	if f.IsTorn(PPN(0)) || len(f.TornPages()) != 0 {
		t.Fatal("erase left the torn roster populated")
	}
}

func TestCutEraseDiesBeforeExecuting(t *testing.T) {
	f := newTestFlash(t)
	if _, err := f.Program(PPN(0), OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
	if err := f.Invalidate(PPN(0)); err != nil {
		t.Fatal(err)
	}
	f.ArmCut(1, 0, false)
	cut := catchCut(t, func() { f.Erase(0, 0) })
	if cut.Type != OpErase {
		t.Fatalf("cut = %+v, want erase", cut)
	}
	// Power died before the erase pulse: the block's contents survive.
	if f.State(PPN(0)) != PageInvalid || f.BlockWritePtr(0) != 1 || f.BlockErases(0) != 0 {
		t.Fatal("fatal erase mutated the block")
	}
}

func TestPowerCycleResetsClocksAndDisarms(t *testing.T) {
	f := newTestFlash(t)
	if _, err := f.Program(PPN(0), OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
	f.ArmCut(1000, 0, false)
	const restart = 5 * Millisecond
	f.PowerCycle(restart)
	if f.CutArmed() {
		t.Fatal("cut still armed after power cycle")
	}
	for c := 0; c < f.Geometry().Chips(); c++ {
		if f.ChipBusyUntil(c) != restart {
			t.Fatalf("chip %d busy-until %d, want %d", c, f.ChipBusyUntil(c), restart)
		}
	}
}

func TestImportStateClearsCutAndTorn(t *testing.T) {
	f := newTestFlash(t)
	snap := f.ExportState()
	f.ArmCut(1, 0, true)
	catchCut(t, func() { f.Program(PPN(0), OOB{}, 0, OpHostData) })
	if err := f.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	if f.CutArmed() || len(f.TornPages()) != 0 {
		t.Fatal("ImportState kept cut/torn state across a snapshot restore")
	}
	// The restored image predates the torn program: page 0 is free again.
	if f.State(PPN(0)) != PageFree {
		t.Fatalf("restored page state = %v", f.State(PPN(0)))
	}
}

// TestDisarmedProgramPathAllocFree pins the acceptance criterion that the
// cut hook adds zero allocations to the uninjected program path.
func TestDisarmedProgramPathAllocFree(t *testing.T) {
	f := newTestFlash(t)
	ppb := f.Geometry().PagesPerBlock
	next := 0
	allocs := testing.AllocsPerRun(ppb-1, func() {
		if _, err := f.Program(PPN(next), OOB{Key: int64(next)}, 0, OpHostData); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("disarmed Program allocates %.1f per op, want 0", allocs)
	}
}
