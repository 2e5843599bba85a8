package learnedftl

import (
	"strconv"
	"testing"

	"learnedftl/internal/fault"
	"learnedftl/internal/workload"
)

// tinyFaultBudget is the tiny-scale budget the reliability experiment
// assertions run under.
func tinyFaultBudget() Budget {
	return Budget{Requests: 4000, WarmExtra: 1, TraceScale: 0.003, Threads: 16}
}

// tableCol returns the index of a named column in a table header.
func tableCol(t *testing.T, tb Table, name string) int {
	t.Helper()
	for i, h := range tb.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("table %q has no column %q (header %v)", tb.Title, name, tb.Header)
	return -1
}

func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", row[col], err)
	}
	return v
}

// TestFaultSweepUBERMonotone is the faultsweep acceptance pin: within each
// scheme, walking up the raw-BER ladder must never decrease UBER or the
// uncorrectable count, and the top rung must be strictly worse than the
// bottom one (the ladder spans the ECC threshold by construction).
func TestFaultSweepUBERMonotone(t *testing.T) {
	tb := runNarrowed(t, "faultsweep", faultSweepGrid([]Scheme{SchemeDFTL, SchemeIdeal}), TinyConfig(), tinyFaultBudget())
	ftlCol := tableCol(t, tb, "FTL")
	uberCol := tableCol(t, tb, "UBER")
	uncorrCol := tableCol(t, tb, "uncorr")
	groups := map[string][][]string{}
	var order []string
	for _, row := range tb.Rows {
		name := row[ftlCol]
		if len(groups[name]) == 0 {
			order = append(order, name)
		}
		groups[name] = append(groups[name], row)
	}
	if len(order) != 2 {
		t.Fatalf("schemes = %v, want the 2 it ran", order)
	}
	for _, name := range order {
		rows := groups[name]
		for i := 1; i < len(rows); i++ {
			prevU, curU := cellFloat(t, rows[i-1], uberCol), cellFloat(t, rows[i], uberCol)
			if curU < prevU {
				t.Errorf("%s: UBER fell from %v to %v between BER rungs %d and %d",
					name, prevU, curU, i-1, i)
			}
			prevC, curC := cellFloat(t, rows[i-1], uncorrCol), cellFloat(t, rows[i], uncorrCol)
			if curC < prevC {
				t.Errorf("%s: uncorrectable count fell from %v to %v between BER rungs %d and %d",
					name, prevC, curC, i-1, i)
			}
		}
		first, last := cellFloat(t, rows[0], uberCol), cellFloat(t, rows[len(rows)-1], uberCol)
		if !(last > first) {
			t.Errorf("%s: UBER not strictly increasing across the ladder (%v -> %v)",
				name, first, last)
		}
	}
}

// TestScrubReducesHostDataLoss is the scrublat acceptance pin: at equal
// offered load, turning background scrub on must strictly reduce the
// host-visible uncorrectable count for every scheme with a scrub path, and
// the on cell must actually have scrubbed (nonzero refreshes).
func TestScrubReducesHostDataLoss(t *testing.T) {
	tb := runTable(t, "scrublat", TinyConfig(), tinyFaultBudget())
	ftlCol := tableCol(t, tb, "FTL")
	modeCol := tableCol(t, tb, "scrub")
	offeredCol := tableCol(t, tb, "offered IOPS")
	uncorrCol := tableCol(t, tb, "uncorr")
	scrubsCol := tableCol(t, tb, "scrubs")
	if len(tb.Rows)%2 != 0 {
		t.Fatalf("odd row count %d, want off/on pairs", len(tb.Rows))
	}
	for i := 0; i < len(tb.Rows); i += 2 {
		off, on := tb.Rows[i], tb.Rows[i+1]
		name := off[ftlCol]
		if on[ftlCol] != name || off[modeCol] != "off" || on[modeCol] != "on" {
			t.Fatalf("rows %d/%d are not an off/on pair of one scheme: %v %v", i, i+1, off, on)
		}
		if off[offeredCol] != on[offeredCol] {
			t.Errorf("%s: offered load differs between cells (%s vs %s)",
				name, off[offeredCol], on[offeredCol])
		}
		if name == SchemeLearnedFTL.String() {
			continue // no block-level scrub path: its two rows match
		}
		offU := cellFloat(t, off, uncorrCol)
		onU := cellFloat(t, on, uncorrCol)
		if !(onU < offU) {
			t.Errorf("%s: scrub did not reduce host data loss (off %v, on %v)", name, offU, onU)
		}
		if s := cellFloat(t, on, scrubsCol); s <= 0 {
			t.Errorf("%s: scrub-on cell performed no scrubs", name)
		}
		if offU <= 0 {
			t.Errorf("%s: scrub-off cell lost no data; the aged hot set should be at risk", name)
		}
	}
}

// TestBadBlockExhaustionFailsGracefully is the graceful-degradation pin:
// under erase/program failure injection heavy enough to retire most of the
// device, allocation eventually fails — and that must surface as a latched
// device-failed report with dropped writes, never a panic.
func TestBadBlockExhaustionFailsGracefully(t *testing.T) {
	cfg := TinyConfig()
	fc := fault.Default()
	fc.Enabled = true
	fc.EraseFailProb = 0.5
	fc.ProgramFailProb = 0.01
	cfg.Fault = fc
	f, err := New(SchemeDFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := measureFIO(f, workload.RandWrite, 8, 1, 200000)
	if !r.Failed {
		t.Fatalf("device survived %d grown bad blocks without failing; report: %+v",
			r.GrownBadBlocks, r.Rel)
	}
	if r.FailReason == "" {
		t.Error("device failed without a recorded reason")
	}
	if r.GrownBadBlocks == 0 {
		t.Error("device failed with no grown bad blocks recorded")
	}
}
