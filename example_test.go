package learnedftl_test

import (
	"fmt"
	"log"

	"learnedftl"
	"learnedftl/internal/core"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/workload"
)

// Example regenerates the paper's headline comparison (Fig. 14) on the tiny
// device and prints each scheme's random-read throughput beside its model
// hit ratio. README's Quickstart is this function's body.
func Example() {
	cfg := learnedftl.TinyConfig()
	budget := learnedftl.TinyBudget()
	results, err := learnedftl.RunExperiments([]string{"fig14"}, cfg, budget)
	if err != nil {
		log.Fatal(err)
	}
	// Columns 1 and 6: random-read MB/s and the share of those reads a
	// learned model translated without a flash read of the mapping.
	for _, row := range results[0].Table.Rows {
		fmt.Printf("%-10s randread %6s MB/s  model hits %5s\n", row[0], row[1], row[6])
	}
	// Output:
	// DFTL       randread  594.6 MB/s  model hits  0.0%
	// TPFTL      randread  582.2 MB/s  model hits  0.0%
	// LeaFTL     randread  588.3 MB/s  model hits  2.5%
	// LearnedFTL randread 1146.8 MB/s  model hits 89.1%
	// ideal      randread 1264.2 MB/s  model hits  0.0%
}

// report summarizes a device's collector after a run.
func report(dev learnedftl.FTL, res sim.Result) stats.Report {
	cfg := dev.Config()
	return stats.BuildReport(dev.Name(), dev.Collector(), dev.Flash().Counters(),
		res.Makespan(), cfg.Geometry.PageSize, cfg.Energy)
}

// Example_doubleReads builds one SSD per scheme, warms it to steady state
// (a sequential fill plus one capacity of 512 KB random overwrites), runs 64
// threads of 4 KB random reads — the paper's worst case for demand-based
// FTLs — and prints the single/double/triple read breakdown that motivates
// LearnedFTL.
func Example_doubleReads() {
	cfg := learnedftl.TinyConfig()
	lp := cfg.LogicalPages()
	fmt.Printf("device: %s, %d logical pages\n\n", cfg.Geometry, lp)
	for _, scheme := range learnedftl.Schemes() {
		dev, err := learnedftl.New(scheme, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.Warmed(dev, workload.Warmup(lp, 1, 128, 1), 0)
		rep := report(dev, sim.Run(dev, workload.FIO(workload.RandRead, lp, 1, 64, 200, 7), 0))
		fmt.Printf("%-11s %7.1f MB/s  p99 %6.2f ms  CMT %5.1f%%  model %5.1f%%  single/double/triple %4.1f/%4.1f/%4.1f%%\n",
			dev.Name(), rep.ReadMBps, float64(rep.P99)/1e6,
			rep.CMTHitRatio*100, rep.ModelHitRatio*100,
			rep.SingleFrac*100, rep.DoubleFrac*100, rep.TripleFrac*100)
	}
	// Output:
	// device: 8ch×8way×1pl×16blk×64pg×4096B (65536 pages, 0.2 GiB), 35840 logical pages
	//
	// DFTL          135.5 MB/s  p99  24.12 ms  CMT   2.9%  model   0.0%  single/double/triple  2.9/97.1/ 0.0%
	// TPFTL         602.4 MB/s  p99   0.84 ms  CMT   3.0%  model   0.0%  single/double/triple  3.0/97.0/ 0.0%
	// LeaFTL        957.9 MB/s  p99   0.64 ms  CMT   5.4%  model   2.3%  single/double/triple  5.3/91.4/ 3.3%
	// LearnedFTL   2369.3 MB/s  p99   0.44 ms  CMT   1.5%  model  89.1%  single/double/triple 90.6/ 9.4/ 0.0%
	// ideal        3360.2 MB/s  p99   0.20 ms  CMT 100.0%  model   0.0%  single/double/triple 100.0/ 0.0/ 0.0%
}

// Example_kvstore models the paper's RocksDB scenario (§IV-D). An LSM-tree
// merges random writes into sequential SST files, so writes are friendly,
// but point lookups (readrandom) scatter across the device, which is where
// LearnedFTL's models replace the double reads of demand paging.
func Example_kvstore() {
	cfg := learnedftl.TinyConfig()
	lp := cfg.LogicalPages()
	for _, scheme := range learnedftl.Schemes() {
		dev, err := learnedftl.New(scheme, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Build the database: sequential SST fill plus compaction-style
		// overwrites to 80 % full.
		sim.Warmed(dev, workload.RocksDBFill(lp, 0.8, 1.0, 3), 0)
		run := func(gens []sim.Generator) stats.Report {
			dev.Collector().Reset()
			dev.Flash().ResetCounters()
			return report(dev, sim.Run(dev, gens, 0))
		}
		rr := run(workload.RocksDBReadRandom(lp, 0.8, 1, 3000, 5))
		rs := run(workload.RocksDBReadSeq(lp, 0.8, 1, 1500, 5))
		fmt.Printf("%-11s readrandom %7.1f MB/s (model %5.1f%%)   readseq %7.1f MB/s (CMT %5.1f%%)\n",
			dev.Name(), rr.ReadMBps, rr.ModelHitRatio*100, rs.ReadMBps, rs.CMTHitRatio*100)
	}
	// Output:
	// DFTL        readrandom    22.4 MB/s (model   0.0%)   readseq    77.5 MB/s (CMT   0.4%)
	// TPFTL       readrandom    48.9 MB/s (model   0.0%)   readseq   187.1 MB/s (CMT  75.0%)
	// LeaFTL      readrandom    50.0 MB/s (model   4.7%)   readseq   345.3 MB/s (CMT  98.5%)
	// LearnedFTL  readrandom    89.5 MB/s (model  91.6%)   readseq   324.6 MB/s (CMT   9.8%)
	// ideal       readrandom    97.7 MB/s (model   0.0%)   readseq   390.6 MB/s (CMT 100.0%)
}

// Example_traceReplay is the paper's tail-latency evaluation (§IV-E,
// Fig. 21): a synthetic WebSearch trace matched to the published Table II
// statistics, replayed against TPFTL, LeaFTL, LearnedFTL and the ideal FTL.
// The GC count sits beside the tails because a foreground collection parks
// the write that triggered it for the whole relocation and erase.
func Example_traceReplay() {
	cfg := learnedftl.TinyConfig()
	lp := cfg.LogicalPages()
	spec := workload.WebSearch1
	fmt.Printf("trace %s: %.1fKB avg I/O, %.1f%% reads\n\n", spec.Name, spec.AvgKB, spec.ReadRatio*100)
	for _, scheme := range []learnedftl.Scheme{
		learnedftl.SchemeTPFTL, learnedftl.SchemeLeaFTL,
		learnedftl.SchemeLearnedFTL, learnedftl.SchemeIdeal,
	} {
		dev, err := learnedftl.New(scheme, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.Warmed(dev, workload.Warmup(lp, 1, 128, 1), 0)
		sim.Run(dev, spec.Generators(lp, 4, 0.005), 0)
		col := dev.Collector()
		fmt.Printf("%-11s mean %6.2f ms   P99 %6.2f ms   P99.9 %6.2f ms   GCs %4d (moved %d pages)\n",
			dev.Name(),
			float64(col.MeanReadLatency())/1e6,
			float64(col.Percentile(99))/1e6,
			float64(col.Percentile(99.9))/1e6,
			col.GCCount, col.GCPagesMoved)
	}
	// Output:
	// trace WebSearch1: 15.5KB avg I/O, 100.0% reads
	//
	// TPFTL       mean   0.10 ms   P99   0.24 ms   P99.9   0.56 ms   GCs    2 (moved 60 pages)
	// LeaFTL      mean   0.07 ms   P99   0.20 ms   P99.9   0.32 ms   GCs    0 (moved 0 pages)
	// LearnedFTL  mean   0.05 ms   P99   0.12 ms   P99.9   0.32 ms   GCs    0 (moved 0 pages)
	// ideal       mean   0.05 ms   P99   0.16 ms   P99.9   0.44 ms   GCs    0 (moved 0 pages)
}

// Example_webserver runs the paper's read-heavy Filebench personality
// (Table I) across all five FTLs, the workload where locality-based caching
// works well and the question is whether learned indexes help or hurt
// (Figs. 7 and 20).
func Example_webserver() {
	cfg := learnedftl.TinyConfig()
	lp := cfg.LogicalPages()
	kind := workload.Webserver
	var baseline float64
	for _, scheme := range learnedftl.Schemes() {
		dev, err := learnedftl.New(scheme, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.Warmed(dev, workload.Warmup(lp, 1, 128, 1), 0)
		rep := report(dev, sim.Run(dev, workload.Filebench(kind, lp, kind.Threads(), 60, 23), 0))
		tput := rep.ReadMBps + rep.WriteMBps
		if scheme == learnedftl.SchemeDFTL {
			baseline = tput
		}
		fmt.Printf("%-11s %7.1f MB/s  (%.2fx DFTL)  cache %5.1f%%  model %5.1f%%\n",
			dev.Name(), tput, tput/baseline, rep.CMTHitRatio*100, rep.ModelHitRatio*100)
	}
	// Output:
	// DFTL          126.4 MB/s  (1.00x DFTL)  cache   6.5%  model   0.0%
	// TPFTL         223.5 MB/s  (1.77x DFTL)  cache  76.7%  model   0.0%
	// LeaFTL       2333.5 MB/s  (18.46x DFTL)  cache  77.2%  model  70.2%
	// LearnedFTL   3328.2 MB/s  (26.33x DFTL)  cache  11.0%  model  86.2%
	// ideal        1273.6 MB/s  (10.07x DFTL)  cache 100.0%  model   0.0%
}

// Example_ablation quantifies three LearnedFTL design choices by switching
// each off in Config.Learned — the virtual-PPN representation (§III-C),
// sequential initialization (§III-E1) and cross-group allocation (§III-D) —
// and comparing the paper's model-accuracy metric (the share of mapped LPNs
// whose model prediction is guaranteed exact) and random-read throughput
// against the full design.
func Example_ablation() {
	full := learnedftl.TinyConfig()
	noVPPN, noSeqInit, noCrossGroup := full, full, full
	noVPPN.Learned.DisableVPPN = true
	noSeqInit.Learned.DisableSeqInit = true
	noCrossGroup.Learned.DisableCrossGroup = true
	lp := full.LogicalPages()
	for _, v := range []struct {
		name string
		cfg  learnedftl.Config
	}{
		{"full design", full},
		{"no VPPN (§III-C off)", noVPPN},
		{"no seq-init (§III-E1 off)", noSeqInit},
		{"no cross-group (§III-D off)", noCrossGroup},
	} {
		dev, err := learnedftl.New(learnedftl.SchemeLearnedFTL, v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.Warmed(dev, workload.Warmup(lp, 2, 128, 1), 0)
		rep := report(dev, sim.Run(dev, workload.FIO(workload.RandRead, lp, 1, 32, 300, 7), 0))
		bits, mapped := dev.(*core.LearnedFTL).ModelAccuracy()
		fmt.Printf("%-28s randread %7.1f MB/s   model accuracy %5.1f%%   model hits %5.1f%%\n",
			v.name, rep.ReadMBps, float64(bits)/float64(mapped)*100, rep.ModelHitRatio*100)
	}
	// Output:
	// full design                  randread  1350.4 MB/s   model accuracy  83.2%   model hits  82.9%
	// no VPPN (§III-C off)         randread  1203.1 MB/s   model accuracy  77.9%   model hits  77.8%
	// no seq-init (§III-E1 off)    randread  1216.4 MB/s   model accuracy  77.1%   model hits  77.2%
	// no cross-group (§III-D off)  randread  2309.4 MB/s   model accuracy 100.0%   model hits  98.5%
}
