package nand

import "testing"

// ladderStub is a fixed-verdict fault model for exercising the retry path
// without importing internal/fault (which would cycle): every read judges
// out, every program and erase fails as its flag says, and the ladder is
// steps deep.
type ladderStub struct {
	out                    ReadOutcome
	failProgram, failErase bool
	steps                  int
}

func (s ladderStub) ReadFault(PPN, int64, int64, Time) ReadOutcome { return s.out }
func (s ladderStub) ProgramFault(PPN, int64) bool                  { return s.failProgram }
func (s ladderStub) EraseFault(int, int64) bool                    { return s.failErase }
func (s ladderStub) RetrySteps() int                               { return s.steps }

// opRecorder is an OpObserver that keeps every operation it sees.
type opRecorder struct{ ops []FlashOp }

func (r *opRecorder) ObserveOp(op FlashOp) { r.ops = append(r.ops, op) }

// TestOpStreamIsCountedClockedAndObservedOnce drives every outcome of every
// flash operation — clean, retried and uncorrectable reads, a program and a
// failed one, an erase and a failed one — through a bare array with a
// recording observer and a stub fault model. Each operation must reach the
// observer exactly once, start at the later of its dependency and its
// chip's prior clock, occupy the chip for its latency plus its retries, and
// leave Counters equal to the observed stream and RelCounters equal to the
// verdicts.
func TestOpStreamIsCountedClockedAndObservedOnce(t *testing.T) {
	f := newTestFlash(t)
	tm := f.Timing()
	ppb := PPN(f.Geometry().PagesPerBlock)
	rec := &opRecorder{}
	f.SetOpObserver(rec)
	m := &ladderStub{}
	f.SetFaultModel(m)

	// run issues one operation, after the stub is set to judge it as given,
	// and checks the one op it must report.
	run := func(name string, want FlashOp, lat Time, stub ladderStub, do func() (Time, error)) {
		t.Helper()
		*m = stub
		chip := f.Codec().Chip(want.PPN)
		prior, n := f.ChipBusyUntil(chip), len(rec.ops)
		done, err := do()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rec.ops) != n+1 {
			t.Fatalf("%s: observed %d ops, want 1", name, len(rec.ops)-n)
		}
		got := rec.ops[n]
		want.Chip, want.Start = int32(chip), max(want.After, prior)
		want.Retry = Time(stub.out.Retries) * tm.RetryLatency
		want.Done = want.Start + lat + want.Retry
		if got != want || done != want.Done || f.ChipBusyUntil(chip) != want.Done {
			t.Fatalf("%s: observed %+v, returned %d, chip clock %d; want %+v",
				name, got, done, f.ChipBusyUntil(chip), want)
		}
	}
	program := func(p PPN, after Time, kind OpKind) func() (Time, error) {
		return func() (Time, error) { return f.Program(p, OOB{Key: int64(p)}, after, kind) }
	}
	read := func(p PPN, after Time, kind OpKind, want ReadOutcome) func() (Time, error) {
		return func() (Time, error) {
			done, out := f.ReadChecked(p, after, kind)
			if out != want {
				t.Fatalf("read of page %d judged %+v, want %+v", p, out, want)
			}
			return done, nil
		}
	}
	erase := func(blk int, after Time) func() (Time, error) {
		return func() (Time, error) { return f.Erase(blk, after) }
	}

	const late = 50 * Millisecond // an issue time past every chip clock
	run("program", FlashOp{Op: OpProgram, Kind: OpHostData, PPN: 0, After: 0},
		tm.ProgramLatency, ladderStub{}, program(0, 0, OpHostData))
	run("program behind the clock", FlashOp{Op: OpProgram, Kind: OpGC, PPN: 1, After: 5},
		tm.ProgramLatency, ladderStub{}, program(1, 5, OpGC))
	run("program after a gap", FlashOp{Op: OpProgram, Kind: OpTranslation, PPN: ppb, After: late},
		tm.ProgramLatency, ladderStub{}, program(ppb, late, OpTranslation))
	clean := ReadOutcome{}
	run("clean read", FlashOp{Op: OpRead, Kind: OpTranslation, PPN: 0, After: 0},
		tm.ReadLatency, ladderStub{out: clean}, read(0, 0, OpTranslation, clean))
	retried := ReadOutcome{Retries: 2, Scrub: true}
	run("retried read", FlashOp{Op: OpRead, Kind: OpHostData, PPN: 1, After: late},
		tm.ReadLatency, ladderStub{out: retried}, read(1, late, OpHostData, retried))
	lost := ReadOutcome{Retries: 5, Uncorrectable: true}
	run("uncorrectable read", FlashOp{Op: OpRead, Kind: OpHostData, PPN: ppb, After: 0},
		tm.ReadLatency, ladderStub{out: lost}, read(ppb, 0, OpHostData, lost))
	run("unchecked read", FlashOp{Op: OpRead, Kind: OpMount, PPN: 0, After: late},
		tm.ReadLatency, ladderStub{out: retried}, func() (Time, error) {
			return f.Read(0, late, OpMount), nil
		})
	run("failed program", FlashOp{Op: OpProgram, Kind: OpHostData, PPN: 2, After: 0},
		tm.ProgramLatency, ladderStub{failProgram: true}, func() (Time, error) {
			done, err := program(2, 0, OpHostData)()
			if err != ErrProgramFailed || !f.BlockBad(0) || f.State(2) != PageInvalid {
				t.Fatalf("failed program: err %v, block bad %v, page %v", err, f.BlockBad(0), f.State(2))
			}
			return done, nil
		})
	run("erase", FlashOp{Op: OpErase, Kind: OpGC, PPN: 2 * ppb, After: 0},
		tm.EraseLatency, ladderStub{}, erase(2, 0))
	run("failed erase", FlashOp{Op: OpErase, Kind: OpGC, PPN: 3 * ppb, After: late},
		tm.EraseLatency, ladderStub{failErase: true}, func() (Time, error) {
			done, err := erase(3, late)()
			if !f.BlockBad(3) {
				t.Fatal("failed erase left its block good")
			}
			return done, err
		})

	var seen OpCounters
	for _, op := range rec.ops {
		switch op.Op {
		case OpRead:
			seen.Reads[op.Kind]++
		case OpProgram:
			seen.Programs[op.Kind]++
		case OpErase:
			seen.Erases++
		}
	}
	if f.Counters() != seen {
		t.Fatalf("Counters() = %+v, the observed stream %+v", f.Counters(), seen)
	}
	wantRel := RelCounters{Retries: 2 + 5 + 2, RetryTime: 9 * tm.RetryLatency,
		Uncorrectable: 1, HostUncorrectable: 1, ProgramFails: 1, EraseFails: 1}
	if f.RelCounters() != wantRel {
		t.Fatalf("RelCounters() = %+v, want %+v", f.RelCounters(), wantRel)
	}
}

// TestFaultDisabledReadPathAllocFree pins the guarantee the whole PR rests
// on: with no fault model attached, the read path is the ideal-NAND path —
// zero allocations per operation, nothing reliability-related touched.
func TestFaultDisabledReadPathAllocFree(t *testing.T) {
	f := mustFlash(testGeom())
	var now Time
	if a := testing.AllocsPerRun(1000, func() {
		now = f.Read(0, now, OpHostData)
	}); a != 0 {
		t.Fatalf("fault-disabled read allocated %.1f times per op", a)
	}
}

// BenchmarkReadRetry measures the per-read cost of the reliability layers:
// the fault-disabled baseline (the CI guard asserts 0 allocs/op here), a
// clean read through an attached model, and a read paying the full retry
// ladder. Reads of free pages are permitted, so no setup programs needed.
func BenchmarkReadRetry(b *testing.B) {
	run := func(b *testing.B, f *Flash) {
		b.ReportAllocs()
		var now Time
		for i := 0; i < b.N; i++ {
			now = f.Read(0, now, OpHostData)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, mustFlash(testGeom()))
	})
	b.Run("clean", func(b *testing.B) {
		f := mustFlash(testGeom())
		f.SetFaultModel(ladderStub{})
		run(b, f)
	})
	b.Run("ladder", func(b *testing.B) {
		f := mustFlash(testGeom())
		f.SetFaultModel(ladderStub{out: ReadOutcome{Retries: 2, Scrub: true}})
		run(b, f)
	})
}
