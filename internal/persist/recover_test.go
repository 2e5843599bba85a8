package persist

import (
	"testing"

	"learnedftl/internal/nand"
)

// scanStub is a fault model whose read verdicts are keyed by PPN; programs
// fail on the pages listed in failProg (growing bad blocks on demand).
type scanStub struct {
	uncorrectable map[nand.PPN]bool
	failProg      map[nand.PPN]bool
}

func (s scanStub) ReadFault(p nand.PPN, _, _ int64, _ nand.Time) nand.ReadOutcome {
	return nand.ReadOutcome{Uncorrectable: s.uncorrectable[p]}
}
func (s scanStub) ProgramFault(p nand.PPN, _ int64) bool { return s.failProg[p] }
func (s scanStub) EraseFault(int, int64) bool            { return false }
func (s scanStub) RetrySteps() int                       { return 0 }

func TestScanOOBLostMappingsUnderFaults(t *testing.T) {
	g := nand.Geometry{Channels: 1, Ways: 1, Planes: 1, BlocksPerUnit: 2, PagesPerBlock: 4, PageSize: 4096}
	fl := mustFlash(g)
	var now nand.Time
	for i, oob := range []nand.OOB{{Key: 7}, {Key: 9}, {Key: 3, Trans: true}} {
		done, err := fl.Program(nand.PPN(i), oob, now, nand.OpHostData)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Page 1's OOB decays beyond the retry ladder; pages 0 and 2 read fine.
	fl.SetFaultModel(scanStub{uncorrectable: map[nand.PPN]bool{1: true}})
	res := ScanOOB(fl, fl.MaxChipBusy())
	if res.LostMappings != 1 || len(res.Lost) != 1 {
		t.Fatalf("lost mappings = %d (%+v), want exactly 1", res.LostMappings, res.Lost)
	}
	if res.Lost[0] != (LostMapping{PPN: 1, Key: 9, Trans: false}) {
		t.Fatalf("lost roster = %+v, want page 1 / LPN 9", res.Lost[0])
	}
	if len(res.Data) != 1 || res.Data[0].Key != 7 {
		t.Fatalf("surviving data mappings = %+v, want only LPN 7", res.Data)
	}
	if len(res.Trans) != 1 || res.Trans[0].Key != 3 {
		t.Fatalf("surviving trans mappings = %+v, want only TPN 3", res.Trans)
	}
}

func TestScanOOBSkipsGrownBadBlocks(t *testing.T) {
	g := nand.Geometry{Channels: 1, Ways: 1, Planes: 1, BlocksPerUnit: 3, PagesPerBlock: 2, PageSize: 4096}
	fl := mustFlash(g)
	if _, err := fl.Program(0, nand.OOB{Key: 1}, 0, nand.OpHostData); err != nil {
		t.Fatal(err)
	}
	// Grow block 1 bad through a program failure on its first page.
	fl.SetFaultModel(scanStub{failProg: map[nand.PPN]bool{2: true}})
	if _, err := fl.Program(2, nand.OOB{Key: 5}, 0, nand.OpHostData); err != nand.ErrProgramFailed {
		t.Fatalf("program on doomed page returned %v, want ErrProgramFailed", err)
	}
	if !fl.BlockBad(1) {
		t.Fatal("block 1 not grown bad")
	}
	res := ScanOOB(fl, fl.MaxChipBusy())
	if res.BadSkipped != 1 {
		t.Fatalf("bad blocks skipped = %d, want 1", res.BadSkipped)
	}
	if res.Scanned != 1 || len(res.Data) != 1 || res.Data[0].Key != 1 {
		t.Fatalf("scan saw %d pages, data %+v — bad block leaked into the scan", res.Scanned, res.Data)
	}
}

func TestScanOOBDiscardsTornPages(t *testing.T) {
	g := nand.Geometry{Channels: 1, Ways: 1, Planes: 1, BlocksPerUnit: 1, PagesPerBlock: 4, PageSize: 4096}
	fl := mustFlash(g)
	if _, err := fl.Program(0, nand.OOB{Key: 4}, 0, nand.OpHostData); err != nil {
		t.Fatal(err)
	}
	fl.ArmCut(1, 0, true)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(nand.PowerCut); !ok {
					panic(r)
				}
			}
		}()
		fl.Program(1, nand.OOB{Key: 6}, 0, nand.OpHostData)
		t.Fatal("armed torn cut did not fire")
	}()
	fl.PowerCycle(fl.MaxChipBusy())
	res := ScanOOB(fl, fl.MaxChipBusy())
	if res.TornDiscarded != 1 {
		t.Fatalf("torn pages discarded = %d, want 1", res.TornDiscarded)
	}
	if res.Scanned != 2 {
		t.Fatalf("scanned = %d, want 2 (the torn page still costs a read)", res.Scanned)
	}
	if len(res.Data) != 1 || res.Data[0].Key != 4 {
		t.Fatalf("data mappings = %+v — the torn page's intended key must never surface", res.Data)
	}
	if res.LostMappings != 0 {
		t.Fatalf("torn page double-counted as a lost mapping (%d)", res.LostMappings)
	}
}
