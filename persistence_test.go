package learnedftl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// persistTestConfig is TinyConfig shrunk further so the five-scheme
// equivalence matrix stays fast.
func persistTestConfig() Config {
	return TinyConfig()
}

// runMixed drives reads, writes and trims against f — every request class
// the engines issue — deterministically.
func runMixed(f FTL, reqs int, seed int64) {
	lp := f.Config().LogicalPages()
	gens := workload.FIO(workload.RandWrite, lp, 1, 4, reqs/8, seed)
	gens = append(gens, workload.FIO(workload.RandRead, lp, 1, 4, reqs/8, seed+77)...)
	gens = append(gens, workload.TrimWrite(lp, 4, 2, reqs/8, 5, seed+191)...)
	sim.Run(f, gens, 0)
}

// TestSnapshotRestoreContinuationEquivalence is the acceptance pin of the
// persistence subsystem: for every scheme, running N requests →
// snapshot → restore → running M more must be indistinguishable from
// running N then M uninterrupted. Indistinguishable is checked at the
// strongest level available — the final device snapshots must be
// byte-identical — plus the measured M-phase reports, which is what
// experiment tables are made of.
func TestSnapshotRestoreContinuationEquivalence(t *testing.T) {
	cfg := persistTestConfig()
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			// Path A: uninterrupted.
			a, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runMixed(a, 2000, 42)

			// Path B: same N requests, then a snapshot/restore seam.
			b, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runMixed(b, 2000, 42)
			snap, err := SnapshotDevice(b)
			if err != nil {
				t.Fatal(err)
			}
			c, err := RestoreDevice(s, cfg, snap)
			if err != nil {
				t.Fatal(err)
			}

			// Both paths measure the same M-phase from the seam.
			measureM := func(f FTL) (Table, []byte) {
				f.Collector().Reset()
				f.Flash().ResetCounters()
				lp := f.Config().LogicalPages()
				gens := workload.FIO(workload.RandWrite, lp, 1, 4, 150, 7)
				gens = append(gens, workload.FIO(workload.RandRead, lp, 1, 4, 150, 8)...)
				res := sim.Run(f, gens, 0)
				r := report(f, res)
				final, err := SnapshotDevice(f)
				if err != nil {
					t.Fatal(err)
				}
				row := Table{
					Title:  "M-phase",
					Header: []string{"FTL", "mean", "p99", "p99.9", "WA", "rd MB/s", "wr MB/s", "cmt", "model"},
					Rows: [][]string{{
						r.FTL, lat(r.MeanLat), lat(r.P99), lat(r.P999),
						f2(r.WriteAmp), f1(r.ReadMBps), f1(r.WriteMBps),
						pct(r.CMTHitRatio), pct(r.ModelHitRatio),
					}},
				}
				return row, final
			}
			tabA, finalA := measureM(a)
			tabC, finalC := measureM(c)
			if tabA.String() != tabC.String() {
				t.Fatalf("M-phase tables diverged:\n%s\nvs\n%s", tabA, tabC)
			}
			if !bytes.Equal(finalA, finalC) {
				t.Fatalf("final device snapshots diverged (%d vs %d bytes)", len(finalA), len(finalC))
			}
		})
	}
}

// TestSnapshotRestoreRejectsMismatch: a snapshot must never restore into
// the wrong scheme, the wrong configuration, or from corrupted bytes.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	cfg := persistTestConfig()
	f, err := New(SchemeDFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runMixed(f, 400, 3)
	snap, err := SnapshotDevice(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDevice(SchemeTPFTL, cfg, snap); err == nil {
		t.Fatal("DFTL snapshot restored into TPFTL")
	}
	other := cfg
	other.CMTRatio = cfg.CMTRatio / 2
	if _, err := RestoreDevice(SchemeDFTL, other, snap); err == nil {
		t.Fatal("snapshot restored under a different config")
	}
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x40
	if _, err := RestoreDevice(SchemeDFTL, cfg, bad); err == nil {
		t.Fatal("corrupted snapshot restored")
	}
	if _, err := RestoreDevice(SchemeDFTL, cfg, snap[:len(snap)-9]); err == nil {
		t.Fatal("truncated snapshot restored")
	}

	// LearnedFTL's switches (Config.Learned) are part of its snapshot's
	// identity: a snapshot taken under an ablation must not restore into a
	// default device, nor into one that differs in a single switch (the
	// costs and VPPN behavior would diverge), and must round-trip under the
	// same switches.
	ablated := cfg
	ablated.Learned.DisableVPPN = true
	ablated.Learned.PredictCost = 0
	ld, err := New(SchemeLearnedFTL, ablated)
	if err != nil {
		t.Fatal(err)
	}
	runMixed(ld, 400, 5)
	ldSnap, err := SnapshotDevice(ld)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDevice(SchemeLearnedFTL, cfg, ldSnap); err == nil {
		t.Fatal("ablated snapshot restored into a default device")
	}
	oneOff := ablated
	oneOff.Learned.PredictCost = cfg.Learned.PredictCost
	if _, err := RestoreDevice(SchemeLearnedFTL, oneOff, ldSnap); err == nil {
		t.Fatal("snapshot restored under different ablation switches")
	}
	if _, err := RestoreDevice(SchemeLearnedFTL, ablated, ldSnap); err != nil {
		t.Fatalf("matching-switches restore failed: %v", err)
	}
}

// TestSnapshotStreamMatchesWideTables pins the snapshot stream of one warmed
// device per scheme to a SHA-256. The device state in it is what the same
// seed produced when the flash keys and the L2P were 8 bytes an entry
// (recorded by running this body at commit a9c33e3): the narrow tables encode
// to the same varints. The identity string at the head of the stream renders
// the whole Config, so these sums were re-recorded when Config gained its
// Learned field; the bytes after that string did not change. They were
// re-recorded again for format version 4, which writes each LeaFTL table's
// segments oldest first instead of by level: every byte after the version
// stayed the same but LeaFTL's segment section, whose segments per table
// did not change. They were re-recorded once more when seven single-valued
// Config and fault.Config fields became constants; the bytes after the
// identity string did not change.
func TestSnapshotStreamMatchesWideTables(t *testing.T) {
	want := map[Scheme]string{
		SchemeDFTL:       "a8d6be7c9c72763754690a1e12049e72e95d3c124e8eb478e43f460276dcb33e",
		SchemeTPFTL:      "8758c54d5adadd7696804fed94edf01a312d77609e13fedb803609e2282b5883",
		SchemeLeaFTL:     "04c88ee68ef834e0f57b3961029f131ee28ccf08c0873a935d334b7f4b17849c",
		SchemeLearnedFTL: "7a4ef4b0370c8c564d9d5c333ed8299a1095ea0f34970b572cbce13ea106021b",
		SchemeIdeal:      "cac7ad60b59116dd00eb48cc9f5f1b978649309a0a62ebcf94751ce74c7f6e8f",
	}
	cfg := persistTestConfig()
	for _, s := range Schemes() {
		f, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warmDevice(f, Budget{WarmExtra: 1})
		runMixed(f, 2000, 17)
		if f.Collector().GCCount == 0 {
			t.Fatalf("%v: the pinned device never collected garbage", s)
		}
		snap, err := SnapshotDevice(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(snap)
		if got := hex.EncodeToString(sum[:]); got != want[s] {
			t.Errorf("%v: snapshot SHA-256 %s, want %s", s, got, want[s])
		}
		g, err := RestoreDevice(s, cfg, snap)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if again, _ := SnapshotDevice(g); !bytes.Equal(again, snap) {
			t.Errorf("%v: snapshot does not survive a restore/snapshot round trip", s)
		}
	}
}

// resealVarint returns snap with the signed varint occupying body bytes
// [off, end) replaced by v and the CRC trailer recomputed, so the corruption
// reaches the section loaders instead of dying at the checksum.
func resealVarint(snap []byte, off, end int, v int64) []byte {
	body := snap[:len(snap)-4]
	out := append([]byte(nil), body[:off]...)
	out = binary.AppendVarint(out, v)
	out = append(out, body[end:]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestRestoreRejectsOutOfDeviceMappings: a checksummed snapshot whose L2P,
// GTD or OOB section names a page the device does not have is an error from
// RestoreDevice under every scheme — it used to restore "fine" and panic with
// an index out of range on the first read. Re-sealing the original value at
// the same offsets restores, so each case fails on the value alone.
func TestRestoreRejectsOutOfDeviceMappings(t *testing.T) {
	cfg := persistTestConfig()
	totalPages := int64(cfg.Geometry.TotalPages())
	for _, s := range Schemes() {
		f, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runMixed(f, 400, 3)
		snap, err := SnapshotDevice(f)
		if err != nil {
			t.Fatal(err)
		}
		// Walk the map-state prefix (header, flash, L2P, GTD) recording where
		// page 0's OOB key, LPN 0's mapping and TPN 0's location sit.
		body := snap[:len(snap)-4]
		d := persist.NewDecoder(body)
		at := func() int { return len(body) - d.Remaining() }
		d.Str()
		d.U64()
		d.Str()
		d.Str()
		flashOff := at()
		d.Words()
		d.Words()
		d.Count()
		keyOff := at()
		key0 := d.I64()
		keyEnd := at()
		// A scratch array consumes the rest of the flash section.
		scratch, err := nand.NewFlash(cfg.Geometry, cfg.Timing)
		if err != nil {
			t.Fatal(err)
		}
		d = persist.NewDecoder(body[flashOff:])
		at = func() int { return len(body) - d.Remaining() }
		if err := persist.LoadFlash(d, scratch); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		nL2P := d.Count()
		l2pOff := at()
		l2p0 := d.I64()
		l2pEnd := at()
		for i := 1; i < nL2P; i++ {
			d.I64()
		}
		d.Count()
		gtdOff := at()
		gtd0 := d.I64()
		gtdEnd := at()
		if err := d.Err(); err != nil || nL2P == 0 {
			t.Fatalf("%v: walking the snapshot prefix: %d L2P entries, %v", s, nL2P, err)
		}
		for _, tc := range []struct {
			name     string
			off, end int
			orig, v  int64
		}{
			{"L2P entry = TotalPages", l2pOff, l2pEnd, l2p0, totalPages},
			{"GTD entry = 1<<40", gtdOff, gtdEnd, gtd0, 1 << 40},
			{"packed OOB key = 1<<33", keyOff, keyEnd, key0, 1 << 33},
		} {
			if _, err := RestoreDevice(s, cfg, resealVarint(snap, tc.off, tc.end, tc.orig)); err != nil {
				t.Fatalf("%v: %s: re-sealing the original value broke the snapshot: %v", s, tc.name, err)
			}
			if _, err := RestoreDevice(s, cfg, resealVarint(snap, tc.off, tc.end, tc.v)); err == nil {
				t.Errorf("%v: %s: restored", s, tc.name)
			}
		}
	}
}

// TestOOBRecoveryRebuildsL2P is the crash-recovery invariant: at every
// fill level, dropping all DRAM state and rescanning the flash array's OOB
// reverse mappings must rebuild an L2P identical to the shadow map — and
// for the GTD-carrying schemes, an identical GTD. The device must remain
// fully operational afterwards.
func TestOOBRecoveryRebuildsL2P(t *testing.T) {
	cfg := persistTestConfig()
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			f, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lp := f.Config().LogicalPages()
			var now nand.Time
			for step, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
				// Grow the fill to this level: sequential extension plus
				// random overwrites so stale pages exist for the scan to
				// skip.
				lo, hi := int64(float64(lp)*frac*0.75), int64(float64(lp)*frac)
				for l := lo; l < hi; l += 64 {
					n := hi - l
					if n > 64 {
						n = 64
					}
					now = f.WritePages(l, int(n), now)
				}
				sim.Run(f, workload.FIO(workload.RandWrite, hi, 1, 2, 200, int64(step)+11), 0)

				shadow := f.ShadowL2P()
				gtdBefore := f.GTDLocations()

				res, err := RecoverFromCrash(f)
				if err != nil {
					t.Fatal(err)
				}
				if res.Makespan() <= 0 {
					t.Fatalf("fill %.2f: mount scan took no time", frac)
				}
				got := f.ShadowL2P()
				if len(got) != len(shadow) {
					t.Fatalf("fill %.2f: L2P length changed", frac)
				}
				for i := range got {
					if got[i] != shadow[i] {
						t.Fatalf("fill %.2f: recovered L2P[%d] = %d, shadow %d", frac, i, got[i], shadow[i])
					}
				}
				after := f.GTDLocations()
				if len(after) != len(gtdBefore) {
					t.Fatalf("fill %.2f: GTD length changed", frac)
				}
				for i := range after {
					if after[i] != gtdBefore[i] {
						t.Fatalf("fill %.2f: recovered GTD[%d] = %d, want %d", frac, i, after[i], gtdBefore[i])
					}
				}
				now = res.End
			}
			// Still operational: more writes and reads after the last mount.
			sim.Run(f, workload.FIO(workload.RandWrite, lp, 1, 2, 300, 99), 0)
			sim.Run(f, workload.FIO(workload.RandRead, lp, 1, 2, 300, 98), 0)
		})
	}
}

// TestWarmCheckpointReuse is the sweep-speedup acceptance test, asserted
// via flash op counters rather than wall-clock (the CI box has one core):
// a repeated experiment with a checkpoint cache must hit for every cell,
// produce byte-identical tables, and the hits must have avoided
// re-simulating at least the warm-up's worth of flash programs.
func TestWarmCheckpointReuse(t *testing.T) {
	cfg := persistTestConfig()
	b := sweepTestBudget(2)

	cold := runTable(t, "fig6", cfg, b)

	dir := t.TempDir()
	cache, err := NewCheckpointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	bc := b
	bc.Checkpoints = cache
	first := runTable(t, "fig6", cfg, bc)
	second := runTable(t, "fig6", cfg, bc)
	if cold.String() != first.String() || cold.String() != second.String() {
		t.Fatalf("checkpointed tables diverged from cold run:\ncold:\n%s\nfirst:\n%s\nsecond:\n%s",
			cold, first, second)
	}
	st := cache.Stats()
	if st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("first run: misses=%d stores=%d, want 2/2", st.Misses, st.Stores)
	}
	if st.Hits != 2 {
		t.Fatalf("second run: hits=%d, want 2", st.Hits)
	}
	// Each hit restored a device whose warm-up wrote at least one full
	// logical space of pages; those simulated programs were not re-paid.
	if min := 2 * cfg.LogicalPages(); st.ProgramsSaved < min {
		t.Fatalf("programs saved = %d, want >= %d (two warm-ups)", st.ProgramsSaved, min)
	}
	// Corrupt entries are misses: each cell warms cold on a fresh device,
	// with the same table, and stores a good entry over the bad one.
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint files = %v (%v), want 2", files, err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if third := runTable(t, "fig6", cfg, bc); third.String() != cold.String() {
		t.Fatalf("table after corrupt checkpoints diverged:\n%s\nwant:\n%s", third, cold)
	}
	if st := cache.Stats(); st.Misses != 4 || st.Stores != 4 || st.Hits != 2 {
		t.Fatalf("after corrupt checkpoints: %+v, want 4 misses, 4 stores, 2 hits", st)
	}
}

// TestMountLatExperiment: the mountlat table must cover every scheme × one
// of four fill rungs.
func TestMountLatExperiment(t *testing.T) {
	tab := runTable(t, "mountlat", persistTestConfig(), sweepTestBudget(4))
	if len(tab.Rows) != len(Schemes())*4 {
		t.Fatalf("mountlat rows = %d, want %d", len(tab.Rows), len(Schemes())*4)
	}
}
