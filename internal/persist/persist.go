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

// SaveFlash appends the flash array's exported state in its packed form:
// programmed/valid bitmaps as fixed-width words and the OOB as one tagged
// varint key per page.
func SaveFlash(e *Encoder, fl *nand.Flash) {
	s := fl.ExportState()
	e.Words(s.Programmed)
	e.Words(s.Valid)
	e.U64(uint64(len(s.Keys)))
	for _, k := range s.Keys {
		e.I64(int64(k))
	}
	e.U64(uint64(len(s.Erases)))
	for i := range s.Erases {
		e.I64(s.Erases[i])
		e.I64(int64(s.LastMod[i]))
	}
	e.U64(uint64(len(s.ChipBusy)))
	for _, t := range s.ChipBusy {
		e.I64(int64(t))
	}
	saveCounters(e, s.Counters)
	saveCounters(e, s.Lifetime)
	// Reliability state. Reads and Bad share one length (both per-block).
	e.U64(uint64(len(s.Reads)))
	for _, r := range s.Reads {
		e.I64(r)
	}
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

// LoadFlash restores a SaveFlash section into fl (same geometry).
func LoadFlash(d *Decoder, fl *nand.Flash) error {
	var s nand.FlashState
	s.Programmed = d.Words()
	s.Valid = d.Words()
	s.Keys = make([]uint32, d.Count())
	for i := range s.Keys {
		k := d.I64()
		if k < 0 || k > math.MaxUint32 {
			return fmt.Errorf("persist: packed OOB key %d of page %d does not fit 32 bits", k, i)
		}
		s.Keys[i] = uint32(k)
	}
	nb := d.Count()
	s.Erases = make([]int64, nb)
	s.LastMod = make([]nand.Time, nb)
	for i := range s.Erases {
		s.Erases[i] = d.I64()
		s.LastMod[i] = nand.Time(d.I64())
	}
	s.ChipBusy = make([]nand.Time, d.Count())
	for i := range s.ChipBusy {
		s.ChipBusy[i] = nand.Time(d.I64())
	}
	s.Counters = loadCounters(d)
	s.Lifetime = loadCounters(d)
	s.Reads = make([]int64, d.Count())
	for i := range s.Reads {
		s.Reads[i] = d.I64()
	}
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

// onDevice reports whether a decoded map entry is InvalidPPN or a page of a
// totalPages-page device. Anything else, once restored, would index the
// flash array out of range on the first read.
func onDevice(p, totalPages int64) bool {
	return p >= int64(nand.InvalidPPN) && p < totalPages
}

// SaveL2P appends the logical-to-physical map, one signed varint per LPN.
func SaveL2P(e *Encoder, m mapping.L2P) {
	e.U64(uint64(m.Len()))
	for lpn := int64(0); lpn < m.Len(); lpn++ {
		e.I64(int64(m.Get(lpn)))
	}
}

// LoadL2P restores a SaveL2P section into m, whose length must match the
// saved one, rejecting an entry that is not onDevice.
func LoadL2P(d *Decoder, m mapping.L2P, totalPages int64) error {
	n := d.U64()
	if d.Err() == nil && n != uint64(m.Len()) {
		return fmt.Errorf("persist: L2P length %d, want %d", n, m.Len())
	}
	for lpn := int64(0); lpn < m.Len(); lpn++ {
		p := d.I64()
		if !onDevice(p, totalPages) {
			return fmt.Errorf("persist: L2P maps LPN %d to page %d of %d", lpn, p, totalPages)
		}
		m.Set(lpn, nand.PPN(p))
	}
	return d.Err()
}

// SaveGTD appends the global translation directory.
func SaveGTD(e *Encoder, g *mapping.GTD) {
	e.U64(uint64(g.NumTPNs()))
	for t := 0; t < g.NumTPNs(); t++ {
		e.I64(int64(g.Lookup(t)))
	}
}

// LoadGTD restores a SaveGTD section into g (same TPN count), rejecting a
// location that is not onDevice.
func LoadGTD(d *Decoder, g *mapping.GTD, totalPages int64) error {
	n := d.U64()
	if d.Err() == nil && n != uint64(g.NumTPNs()) {
		return fmt.Errorf("persist: GTD of %d TPNs, want %d", n, g.NumTPNs())
	}
	for t := 0; t < g.NumTPNs(); t++ {
		p := d.I64()
		if !onDevice(p, totalPages) {
			return fmt.Errorf("persist: GTD places TPN %d at page %d of %d", t, p, totalPages)
		}
		g.Update(t, nand.PPN(p))
	}
	return d.Err()
}

// SaveCMT appends the cached mapping table in LRU→MRU order.
func SaveCMT(e *Encoder, c *mapping.CMT) {
	ents := c.Export()
	e.U64(uint64(len(ents)))
	for _, en := range ents {
		e.I64(en.LPN)
		e.I64(int64(en.PPN))
		e.Bool(en.Dirty)
	}
}

// LoadCMT restores a SaveCMT section into a freshly constructed CMT of the
// capacity the snapshot was taken under: inserting the saved entries in
// LRU→MRU order reproduces contents, dirty flags and recency exactly. A
// cached LPN outside [0, logicalPages) is rejected — it would index the GTD
// out of range on its eviction.
func LoadCMT(d *Decoder, c *mapping.CMT, logicalPages int64) error {
	n := d.Count()
	if d.Err() == nil && n > c.Cap() {
		return fmt.Errorf("persist: CMT of %d entries into capacity %d", n, c.Cap())
	}
	for i := 0; i < n; i++ {
		lpn := d.I64()
		ppn := nand.PPN(d.I64())
		dirty := d.Bool()
		if d.Err() == nil && (lpn < 0 || lpn >= logicalPages) {
			return fmt.Errorf("persist: CMT caches LPN %d of %d", lpn, logicalPages)
		}
		c.Insert(lpn, ppn, dirty)
	}
	return d.Err()
}
