package nand

import "testing"

// ladderStub is a fixed-verdict fault model for exercising the retry path
// without importing internal/fault (which would cycle).
type ladderStub struct{ out ReadOutcome }

func (s ladderStub) ReadFault(PPN, int64, int64, Time) ReadOutcome { return s.out }
func (s ladderStub) ProgramFault(PPN, int64) bool                  { return false }
func (s ladderStub) EraseFault(int, int64) bool                    { return false }
func (s ladderStub) RetrySteps() int                               { return 0 }

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
