// Package persist is the device-persistence subsystem: a versioned,
// deterministic binary snapshot of the full device + FTL state
// (Snapshot/Restore over a per-scheme SaveState/LoadState contract), the
// mount-time out-of-band crash-recovery scan that rebuilds translation
// state from the flash array alone (ScanOOB), and a warm-checkpoint cache
// (Cache) that lets experiment sweeps restore a warmed device instead of
// re-paying the paper's ~6×-full-device-write warm-up (§IV-B).
//
// The restore path is bit-for-bit equivalent to never having snapshotted:
// a snapshot captures every piece of state that can influence future
// scheduling or translation decisions — flash page states and OOB, block
// metadata including erase counts and program recency, per-chip busy
// times, operation counters, the L2P shadow map, the GTD, scheme caches in
// exact recency order, learned models, allocator stacks in exact pop order
// and GC-controller counters. Metrics sinks (stats.Collector) are not
// captured: experiments reset them at every measurement boundary, so a
// freshly reset collector is what both the snapshotted and the
// uninterrupted path observe.
package persist

import (
	"fmt"
	"hash/crc32"
	"math"

	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
)

// Version is the snapshot format version; bump on any encoding change.
// Restore accepts exactly this version: the checkpoint cache is a cache, so
// a snapshot written before a bump fails cleanly and its owner falls back to
// a cold warm-up. Version 4 writes each LeaFTL table's segments oldest
// first, where version 3 wrote its LSMT levels.
const Version = 4

// magic leads every snapshot.
const magic = "LFTLSNAP"

// Device is the persistence part of the device contract (ftl.FTL embeds
// it): the scheme name, written to the header and verified on restore,
// and the two state hooks.
type Device interface {
	Name() string
	// SaveState appends the device's complete mutable state.
	SaveState(e *Encoder)
	// LoadState replaces the device's mutable state with a decoded
	// snapshot. The device must be freshly constructed with the same
	// configuration the snapshot was taken under.
	LoadState(d *Decoder) error
}

// Snapshot serializes dev into a self-verifying byte stream. fingerprint
// is an opaque caller-chosen identity string (typically scheme + full
// config + warm-up spec) that Restore checks, so a snapshot can never be
// restored into a differently configured device.
func Snapshot(dev Device, fingerprint string) []byte {
	e := NewEncoder()
	e.Str(magic)
	e.U64(Version)
	e.Str(dev.Name())
	e.Str(fingerprint)
	dev.SaveState(e)
	buf := e.Data()
	var tail [4]byte
	sum := crc32.ChecksumIEEE(buf)
	tail[0] = byte(sum)
	tail[1] = byte(sum >> 8)
	tail[2] = byte(sum >> 16)
	tail[3] = byte(sum >> 24)
	return append(buf, tail[:]...)
}

// Restore loads a Snapshot into dev, which must be freshly constructed
// under the same configuration. It verifies the checksum, format version,
// scheme name and fingerprint before touching the device, and requires the
// stream to be fully consumed.
func Restore(dev Device, fingerprint string, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	sum := crc32.ChecksumIEEE(body)
	got := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if sum != got {
		return fmt.Errorf("persist: snapshot checksum mismatch")
	}
	d := NewDecoder(body)
	if m := d.Str(); m != magic {
		return fmt.Errorf("persist: bad snapshot magic %q", m)
	}
	if v := d.U64(); v != Version {
		return fmt.Errorf("persist: snapshot version %d, want %d", v, Version)
	}
	if n := d.Str(); n != dev.Name() {
		return fmt.Errorf("persist: snapshot of scheme %q restored into %q", n, dev.Name())
	}
	if fp := d.Str(); fp != fingerprint {
		return fmt.Errorf("persist: snapshot fingerprint mismatch")
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := dev.LoadState(d); err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("persist: %d trailing bytes after snapshot", d.Remaining())
	}
	return nil
}

// keyRun is the number of OOB keys SaveFlash and LoadFlash move through
// the flash array at a time: a multiple of 64, as ImportKeys requires.
const keyRun = 1024

// SaveFlash appends the flash array's exported state in its packed form:
// programmed/valid bitmaps as fixed-width words and the OOB as one tagged
// varint key per page, read straight from the packed keys a run at a time.
func SaveFlash(e *Encoder, fl *nand.Flash) {
	s := fl.ExportState()
	pages := fl.Geometry().TotalPages()
	// One reservation holds the section: the bitmaps, 5 bytes per key (any
	// 32-bit key) and 64 per block and per chip (each of their fields at its
	// widest); the lengths and counters fit in the last 512.
	e.buf = grow(e.buf, 16*len(s.Programmed)+5*pages+64*(len(s.Erases)+len(s.ChipBusy))+512)
	e.Words(s.Programmed)
	e.Words(s.Valid)
	e.U64(uint64(pages))
	var run [keyRun]uint32
	for p := 0; p < pages; p += keyRun {
		keys := run[:min(keyRun, pages-p)]
		fl.ExportKeys(p, keys)
		PutRun(e, Varints, keys)
	}
	e.U64(uint64(len(s.Erases)))
	blocks := make([]int64, 0, 2*len(s.Erases))
	for i := range s.Erases {
		blocks = append(blocks, s.Erases[i], int64(s.LastMod[i]))
	}
	PutRun(e, Varints, blocks)
	e.U64(uint64(len(s.ChipBusy)))
	PutRun(e, Varints, s.ChipBusy)
	saveCounters(e, s.Counters)
	saveCounters(e, s.Lifetime)
	// Reliability state. Reads and Bad share one length (both per-block).
	e.U64(uint64(len(s.Reads)))
	PutRun(e, Varints, s.Reads)
	for _, bad := range s.Bad {
		e.Bool(bad)
	}
	saveRelCounters(e, s.Rel)
	// The scrub queue exists only beside a fault model, so a fault-free
	// array's section ends with the counters.
	if fl.FaultModel() != nil {
		e.Ints(s.Scrub)
	}
}

func saveRelCounters(e *Encoder, r nand.RelCounters) {
	e.I64(r.Retries)
	e.I64(int64(r.RetryTime))
	e.I64(r.Uncorrectable)
	e.I64(r.HostUncorrectable)
	e.I64(r.ProgramFails)
	e.I64(r.EraseFails)
}

func loadRelCounters(d *Decoder) nand.RelCounters {
	return nand.RelCounters{
		Retries:           d.I64(),
		RetryTime:         nand.Time(d.I64()),
		Uncorrectable:     d.I64(),
		HostUncorrectable: d.I64(),
		ProgramFails:      d.I64(),
		EraseFails:        d.I64(),
	}
}

// LoadFlash restores a SaveFlash section into fl (same geometry), decoding
// the OOB keys straight into its packed array a run at a time.
func LoadFlash(d *Decoder, fl *nand.Flash) error {
	var s nand.FlashState
	s.Programmed = d.Words()
	s.Valid = d.Words()
	pages := fl.Geometry().TotalPages()
	if n := d.Count(); d.Err() == nil && n != pages {
		return fmt.Errorf("persist: OOB keys of %d pages into a %d-page device", n, pages)
	}
	var run [keyRun]uint32
	for p := 0; p < pages && d.Err() == nil; p += keyRun {
		keys := run[:min(keyRun, pages-p)]
		if bad, k := GetRun(d, Varints, keys, 0, math.MaxUint32); bad >= 0 {
			return fmt.Errorf("persist: packed OOB key %d of page %d does not fit 32 bits", k, p+bad)
		}
		fl.ImportKeys(p, keys)
	}
	nb := d.Count()
	blocks := make([]int64, 2*nb)
	GetRun(d, Varints, blocks, math.MinInt64, math.MaxInt64)
	s.Erases = make([]int64, nb)
	s.LastMod = make([]nand.Time, nb)
	for i := range s.Erases {
		s.Erases[i], s.LastMod[i] = blocks[2*i], nand.Time(blocks[2*i+1])
	}
	s.ChipBusy = make([]nand.Time, d.Count())
	GetRun(d, Varints, s.ChipBusy, math.MinInt64, math.MaxInt64)
	s.Counters = loadCounters(d)
	s.Lifetime = loadCounters(d)
	s.Reads = make([]int64, d.Count())
	GetRun(d, Varints, s.Reads, math.MinInt64, math.MaxInt64)
	s.Bad = make([]bool, len(s.Reads))
	for i := range s.Bad {
		s.Bad[i] = d.Bool()
	}
	s.Rel = loadRelCounters(d)
	if fl.FaultModel() != nil {
		s.Scrub = d.Ints()
	}
	if err := d.Err(); err != nil {
		return err
	}
	return fl.ImportState(s)
}

func saveCounters(e *Encoder, c nand.OpCounters) {
	e.U64(uint64(len(c.Reads)))
	for k := range c.Reads {
		e.I64(c.Reads[k])
		e.I64(c.Programs[k])
	}
	e.I64(c.Erases)
}

func loadCounters(d *Decoder) nand.OpCounters {
	var c nand.OpCounters
	n := int(d.U64())
	if n != len(c.Reads) {
		d.err1("op-kind count")
		return c
	}
	for k := 0; k < n; k++ {
		c.Reads[k] = d.I64()
		c.Programs[k] = d.I64()
	}
	c.Erases = d.I64()
	return c
}

// SaveL2P appends the logical-to-physical map, one signed varint per LPN.
func SaveL2P(e *Encoder, m mapping.L2P) {
	e.U64(uint64(m.Len()))
	PutRun(e, Varints, m.Entries())
}

// LoadL2P restores a SaveL2P section into m, whose length must match the
// saved one, rejecting an entry that is neither InvalidPPN nor a page of a
// totalPages-page device: restored, it would index the flash array out of
// range on the first read.
func LoadL2P(d *Decoder, m mapping.L2P, totalPages int64) error {
	n := d.U64()
	if d.Err() == nil && n != uint64(m.Len()) {
		return fmt.Errorf("persist: L2P length %d, want %d", n, m.Len())
	}
	if lpn, p := GetRun(d, Varints, m.Entries(), int64(nand.InvalidPPN), totalPages-1); lpn >= 0 {
		return fmt.Errorf("persist: L2P maps LPN %d to page %d of %d", lpn, p, totalPages)
	}
	return d.Err()
}

// SaveGTD appends the global translation directory.
func SaveGTD(e *Encoder, g *mapping.GTD) {
	e.U64(uint64(g.NumTPNs()))
	PutRun(e, Varints, g.Locations())
}

// LoadGTD restores a SaveGTD section into g (same TPN count), rejecting a
// location that is neither InvalidPPN nor a page of the device.
func LoadGTD(d *Decoder, g *mapping.GTD, totalPages int64) error {
	n := d.U64()
	if d.Err() == nil && n != uint64(g.NumTPNs()) {
		return fmt.Errorf("persist: GTD of %d TPNs, want %d", n, g.NumTPNs())
	}
	if t, p := GetRun(d, Varints, g.Locations(), int64(nand.InvalidPPN), totalPages-1); t >= 0 {
		return fmt.Errorf("persist: GTD places TPN %d at page %d of %d", t, p, totalPages)
	}
	return d.Err()
}

// SaveCMT appends the cached mapping table in LRU→MRU order: an LPN, a PPN
// and a dirty byte per entry (the byte is the varint of 0 or −1).
func SaveCMT(e *Encoder, c *mapping.CMT) {
	ents := c.Export()
	e.U64(uint64(len(ents)))
	cells := make([]int64, 0, 3*len(ents))
	for _, en := range ents {
		dirty := int64(0)
		if en.Dirty {
			dirty = -1
		}
		cells = append(cells, en.LPN, int64(en.PPN), dirty)
	}
	PutRun(e, Varints, cells)
}

// LoadCMT restores a SaveCMT section into a freshly constructed CMT of the
// capacity the snapshot was taken under: inserting the saved entries in
// LRU→MRU order reproduces contents, dirty flags and recency exactly. A
// cached LPN outside [0, logicalPages) is rejected — it would index the GTD
// out of range on its eviction — and so is a cached PPN outside
// [0, totalPages), which the first read of its LPN would index the flash
// array with.
func LoadCMT(d *Decoder, c *mapping.CMT, logicalPages, totalPages int64) error {
	n := d.Count()
	if d.Err() == nil && n > c.Cap() {
		return fmt.Errorf("persist: CMT of %d entries into capacity %d", n, c.Cap())
	}
	cells := make([]int64, 3*n)
	GetRun(d, Varints, cells, math.MinInt64, math.MaxInt64)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < len(cells); i += 3 {
		lpn, ppn := cells[i], cells[i+1]
		if lpn < 0 || lpn >= logicalPages {
			return fmt.Errorf("persist: CMT caches LPN %d of %d", lpn, logicalPages)
		}
		if ppn < 0 || ppn >= totalPages {
			return fmt.Errorf("persist: CMT maps LPN %d to page %d of %d", lpn, ppn, totalPages)
		}
		c.Insert(lpn, nand.PPN(ppn), cells[i+2] != 0)
	}
	return nil
}
