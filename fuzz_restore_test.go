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
// LearnedFTL models and row tables — present.
func fuzzConfig() Config {
	g := nand.Geometry{Channels: 2, Ways: 1, Planes: 1, BlocksPerUnit: 16, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 16
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.35
	cfg.GCLowWater = 2
	cfg.CMTRatio = 0.05
	return cfg
}

// FuzzRestore: whatever bytes a snapshot holds, RestoreDevice returns a
// device or an error under every scheme, and never panics. An input is a
// snapshot body; the target appends its CRC, so a mutation reaches the
// section decoders instead of dying at the checksum. The committed corpus
// (testdata/fuzz/FuzzRestore) holds one warmed snapshot per scheme,
// truncations of each, and the hostile sections the loaders' own tests
// reject, set into whole snapshots: counts no stream can back, OOB keys,
// L2P entries and GTD locations off the device, CMT and buffered LPNs
// outside the logical space, LeaFTL segments that span nothing, leave their
// translation page or overflow their fields, and translation pages past the
// table.
func FuzzRestore(f *testing.F) {
	cfg := fuzzConfig()
	f.Fuzz(func(t *testing.T, body []byte) {
		snap := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		for _, s := range Schemes() {
			dev, err := RestoreDevice(s, cfg, snap)
			if (dev == nil) == (err == nil) {
				t.Fatalf("%v: RestoreDevice returned device %v and error %v", s, dev, err)
			}
		}
	})
}
