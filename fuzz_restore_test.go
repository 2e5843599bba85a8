package learnedftl

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// fuzzConfig is the device FuzzRestore restores into: 512 pages, so a
// warmed snapshot is a few kilobytes and an input restores in microseconds,
// with every scheme's sections — OOB keys, L2P, GTD, CMT, LeaFTL segments,
// LearnedFTL models and row tables — present. LeaFTL's buffer holds a fifth
// of the logical space, so its writes reach flash and train segments.
func fuzzConfig() Config {
	g := nand.Geometry{Channels: 2, Ways: 1, Planes: 1, BlocksPerUnit: 16, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 16
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.35
	cfg.GCLowWater = 2
	cfg.CMTRatio = 0.05
	cfg.LeaBufferPages = 64
	return cfg
}

// FuzzRestore: whatever bytes a snapshot holds, RestoreDevice returns a
// device or an error under every scheme, never panics, and a device it
// returns serves writes, reads, a trim and enough overwrites to collect
// (useRestored). An input is a snapshot body; the target appends its CRC,
// so a mutation reaches the section decoders instead of dying at the
// checksum. The committed corpus (testdata/fuzz/FuzzRestore) holds one
// warmed snapshot per scheme, truncations of each, and the hostile sections
// the loaders' own tests reject, set into whole snapshots: counts no stream
// can back, OOB keys, L2P entries and GTD locations off the device, CMT and
// buffered LPNs outside the logical space, LeaFTL segments that span
// nothing, leave their translation page or overflow their fields,
// translation pages past the table, an LPN mapped to a page that does not
// hold it (a seed the fuzzer found), allocator blocks off their chip or
// listed twice, and LearnedFTL rows, groups and pool blocks the
// configuration cannot hold, freed twice or freed while programmed.
func FuzzRestore(f *testing.F) {
	cfg := fuzzConfig()
	f.Fuzz(func(t *testing.T, body []byte) {
		snap := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		for _, s := range Schemes() {
			dev, err := RestoreDevice(s, cfg, snap)
			if (dev == nil) == (err == nil) {
				t.Fatalf("%v: RestoreDevice returned device %v and error %v", s, dev, err)
			}
			if dev != nil {
				useRestored(t, dev)
			}
		}
	})
}

// useRestored writes, reads and trims a few pages of a restored device,
// then overwrites its logical space twice, which no free space the device
// can hold absorbs, so it must collect. A restored state no operation can
// use fails here rather than at its first write in a run.
func useRestored(t *testing.T, dev FTL) {
	lp := dev.Config().LogicalPages()
	gcs := dev.Collector().GCCount
	now := dev.WritePages(0, 4, 0)
	now = dev.ReadPages(0, 4, now)
	now = dev.TrimPages(1, 2, now)
	now = dev.ReadPages(0, 4, now)
	for i := range 2 * lp {
		now = dev.WritePages(i*7%lp, 1, now)
	}
	dev.ReadPages(0, int(min(lp, 64)), now)
	if dev.Collector().GCCount == gcs {
		t.Fatalf("%s: %d overwrites ran no collection", dev.Name(), 2*lp)
	}
}
