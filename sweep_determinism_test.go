package learnedftl

import (
	"reflect"
	"strings"
	"testing"
)

// sweepTestBudget is small enough that the determinism comparison runs in a
// few seconds even on one core.
func sweepTestBudget(workers int) Budget {
	return Budget{Requests: 2000, WarmExtra: 1, TraceScale: 0.002, Threads: 16, Workers: workers}
}

// TestExperimentsParallelDeterminism is the correctness bar of the sweep
// engine: running an experiment's cells across a worker pool must produce a
// table byte-identical to the serial run. fig2 (per-thread-count cells),
// fig6 (per-scheme cells with post-hoc normalization) and table2 (pure
// computation) cover the three assembly shapes; loadsweep (scheme × rate
// open-loop cells with seeded Poisson arrivals) and tenantmix (per-scheme
// cells emitting two per-tenant rows each) cover the open-loop host model.
func TestExperimentsParallelDeterminism(t *testing.T) {
	cfg := TinyConfig()
	for _, id := range []string{"fig2", "fig6", "table2", "loadsweep", "tenantmix"} {
		run := Experiments()[id]
		serial, err := run(cfg, sweepTestBudget(1))
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallel, err := run(cfg, sweepTestBudget(8))
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s diverged:\nserial:\n%s\nparallel:\n%s", id, serial, parallel)
		}
		if serial.String() != parallel.String() {
			t.Fatalf("%s rendering diverged", id)
		}
	}
}

// closedLoopGolden pins the closed-loop experiment tables bit-for-bit to
// the pre-refactor engine: these strings were captured from the seed's
// closed-loop-only sim.Run (commit f06c5b0) with TinyConfig and
// sweepTestBudget before the event-core/open-loop refactor landed. If this
// test fails, the host-layer refactor moved a closed-loop number — that is
// a regression, not a table to re-bless.
var closedLoopGolden = map[string]string{
	"fig2": `== Fig 2: TPFTL read performance vs threads (seq uses 8-page I/O, rand 1-page) ==
threads  seqread MB/s  randread MB/s  seq CMT hit  rand CMT hit
1        329.2         49.5           87.5%        2.6%
16       2353.2        574.4          87.5%        2.7%
32       2854.5        905.4          87.5%        3.0%
64       3209.1        927.0          87.5%        3.2%
`,
	"fig6": `== Fig 6: LeaFTL vs TPFTL under FIO random reads ==
FTL     MB/s   norm vs TPFTL  single  double  triple
LeaFTL  586.5  1.01           5.2%    90.8%   4.0%
TPFTL   583.0  1.00           2.2%    97.8%   0.0%
`,
	// The GC tables below were captured from commit 834c5bf, before garbage
	// collection was extracted into internal/gc: with the default greedy
	// policy and foreground-only triggering, the pluggable subsystem must
	// reproduce the hard-coded collector bit-for-bit.
	"fig16": `== Fig 16: GC activity under FIO writes (count; mean GCs per simulated second) ==
FTL         rand GCs  rand GC/s  seq GCs  seq GC/s
DFTL        75        121.52     756      147.90
TPFTL       108       112.81     614      121.80
LeaFTL      77        136.09     626      184.13
LearnedFTL  0         0.00       10       10.88
ideal       69        475.08     382      1074.24
`,
	"fig17": `== Fig 17: sorting+training share of LearnedFTL GC time (paper: <= 3.2%) ==
randwrite requests  GC busy  sort+train  share
1000                0.00ms   0.00ms      0.00%
2000                0.00ms   0.00ms      0.00%
4000                86.64ms  2.80ms      3.23%
`,
	"fig21": `== Fig 21: P99 / P99.9 tail latency under real-world traces ==
trace       TPFTL p99  LeaFTL p99  LearnedFTL p99  ideal p99  TPFTL p999  LeaFTL p999  LearnedFTL p999  ideal p999
WebSearch1  0.24ms     0.16ms      0.12ms          0.20ms     0.36ms      0.20ms       0.32ms           0.48ms
WebSearch2  0.20ms     0.20ms      0.12ms          0.12ms     0.40ms      0.36ms       0.32ms           0.28ms
WebSearch3  0.24ms     0.20ms      0.16ms          0.08ms     0.40ms      0.24ms       0.32ms           0.16ms
Systor17    42.76ms    0.16ms      0.68ms          24.28ms    74.56ms     512.80ms     79.48ms          57.88ms
`,
	// fig14 and mountlat were captured at commit 790da67, before the
	// translation state and the demand-paging cache were folded into one owner
	// each: they pin every scheme's four FIO paths (DFTL's read path included)
	// and the mount scan's recovered/scanned/latency numbers.
	"fig14": `== Fig 14: FIO at 64 threads (throughput MB/s; CMT+model hit; WA) ==
FTL         randread  seqread  randwrite  seqwrite  rr CMT  rr model  sr CMT  sr model  WA rand  WA seq
DFTL        602.8     571.1    10.7       12.4      2.4%    0.0%      0.1%    0.0%      2.80     2.99
TPFTL       583.0     2472.3   8.0        12.5      2.2%    0.0%      87.5%   0.0%      3.25     2.47
LeaFTL      586.5     2726.9   13.8       18.4      5.3%    2.2%      94.2%   88.5%     2.84     2.47
LearnedFTL  1107.8    4141.0   134.8      62.4      1.2%    88.6%     7.0%    92.0%     1.40     4.53
ideal       1268.3    4069.0   41.0       188.0     100.0%  0.0%      100.0%  0.0%      1.94     1.47
`,
	"mountlat": `== Mount latency: OOB crash-recovery scan vs device fill (scanned = programmed pages whose OOB the mount read) ==
FTL         fill    recovered LPNs  scanned pages  mount
DFTL        25.0%   8960            16845          27.56ms
DFTL        50.0%   17920           34765          40.96ms
DFTL        75.0%   26880           52685          40.96ms
DFTL        100.0%  35840           54285          40.96ms
TPFTL       25.0%   8960            9084           8.08ms
TPFTL       50.0%   17920           18184          16.48ms
TPFTL       75.0%   26880           27284          24.88ms
TPFTL       100.0%  35840           36384          33.28ms
LeaFTL      25.0%   8192            8320           5.28ms
LeaFTL      50.0%   16384           16640          10.56ms
LeaFTL      75.0%   26624           27040          17.16ms
LeaFTL      100.0%  34816           35360          22.44ms
LearnedFTL  25.0%   8960            9092           8.24ms
LearnedFTL  50.0%   17920           18192          16.32ms
LearnedFTL  75.0%   26880           27292          21.92ms
LearnedFTL  100.0%  35840           36392          27.52ms
ideal       25.0%   8960            8960           5.60ms
ideal       50.0%   17920           17920          11.20ms
ideal       75.0%   26880           26880          16.80ms
ideal       100.0%  35840           35840          22.40ms
`,
}

// trimTrailing strips the column padding Table.String appends to every
// line, so the golden strings can live in source without trailing
// whitespace. Cell contents are compared exactly.
func trimTrailing(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

func TestClosedLoopTablesMatchPreRefactorEngine(t *testing.T) {
	cfg := TinyConfig()
	for id, want := range closedLoopGolden {
		tab, err := Experiments()[id](cfg, sweepTestBudget(1))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := trimTrailing(tab.String()); got != want {
			t.Fatalf("%s diverged from the pre-refactor engine:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// TestLoadSweepRepeatable: the open-loop ladder must be byte-identical
// across repeated runs (seeded arrivals, hermetic cells) and must actually
// show the hockey stick — queue-wait share rising monotonically enough to
// reach domination on the last rung.
func TestLoadSweepRepeatable(t *testing.T) {
	cfg := TinyConfig()
	a, err := LoadSweep(cfg, sweepTestBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadSweep(cfg, sweepTestBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("loadsweep not reproducible:\n%s\nvs\n%s", a, b)
	}
	if len(a.Rows) != len(Schemes())*8 {
		t.Fatalf("loadsweep rows = %d, want %d", len(a.Rows), len(Schemes())*8)
	}
}

// TestOpenLoopBudgetValidation: a typo'd arrival process or an
// out-of-range tenant share must error rather than silently running with
// defaults, and "unbounded" — valid for the engine — is rejected by the
// experiments because it voids the offered-IOPS axis.
func TestOpenLoopBudgetValidation(t *testing.T) {
	b := sweepTestBudget(1)
	b.Arrival = "possion"
	if _, err := LoadSweep(TinyConfig(), b); err == nil {
		t.Fatal("typo'd arrival accepted")
	}
	b.Arrival = "unbounded"
	if _, err := TenantMixExp(TinyConfig(), b); err == nil {
		t.Fatal("unbounded arrival accepted by tenantmix")
	}
	b.Arrival = ""
	b.ReadTenantShare = 1.5
	if _, err := TenantMixExp(TinyConfig(), b); err == nil {
		t.Fatal("out-of-range tenant share accepted")
	}
}

// TestRunExperimentsOrderAndErrors covers the api.go sweep entry point.
func TestRunExperimentsOrderAndErrors(t *testing.T) {
	cfg := TinyConfig()
	res, err := RunExperiments([]string{"table2", "fig15"}, cfg, sweepTestBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Experiment != "table2" || res[1].Experiment != "fig15" {
		t.Fatalf("results out of order: %+v", res)
	}
	for _, r := range res {
		if r.Seconds < 0 || len(r.Table.Rows) == 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
	}
	if _, err := RunExperiments([]string{"nope"}, cfg, sweepTestBudget(1)); err == nil {
		t.Fatal("unknown id did not error")
	}
}
