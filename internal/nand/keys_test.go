package nand

import (
	"math/rand"
	"testing"
)

// TestKeyArrayMatchesReference drives the packed key array at random widths
// 1–33 beside a plain slice: after every store, every field reads back what
// the slice holds, so a store returns its value and leaves its neighbours
// untouched; a value one bit wider than the array widens it with every
// field kept; and a block-sized clear zeroes exactly its range.
func TestKeyArrayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 200; trial++ {
		w := uint(1 + rng.Intn(33))
		n := 1 + rng.Intn(300)
		a := newKeyArray(n, w)
		ref := make([]uint64, n)
		check := func(what string) {
			t.Helper()
			if a.n != n || int64(len(a.b)) != keyBytes(int64(n), a.w) || a.mask != 1<<a.w-1 {
				t.Fatalf("w=%d n=%d after %s: array of %d fields, %d bytes at width %d",
					w, n, what, a.n, len(a.b), a.w)
			}
			for i, v := range ref {
				if got := a.get(i); got != v {
					t.Fatalf("w=%d n=%d after %s: field %d = %d, want %d", w, n, what, i, got, v)
				}
			}
		}
		for step := 0; step < 2*n; step++ {
			i := rng.Intn(n)
			v := rng.Uint64() & a.mask
			if step%3 == 0 {
				v = a.mask // all ones: any spill into a neighbour shows
			}
			a.set(i, v)
			ref[i] = v
			check("set")
		}
		if a.w < 33 {
			i := rng.Intn(n)
			v := uint64(1) << a.w
			a.widen(v)
			check("widen")
			if a.w != w+1 {
				t.Fatalf("w=%d: widening for 1<<%d left width %d, want %d", w, w, a.w, w+1)
			}
			a.set(i, v)
			ref[i] = v
			check("set after widening")
		}
		ppb := 1 + rng.Intn(n)
		blk := rng.Intn((n + ppb - 1) / ppb)
		lo, hi := blk*ppb, min(n, (blk+1)*ppb)
		a.clear(lo, hi)
		clear(ref[lo:hi])
		check("clear")
	}
}

// TestKeyArrayPackUnpackRoundTrip: the sequential passes that snapshot and
// restore use equal per-field gets and sets, tail padding included, whether
// the array moves in one run or in word-aligned runs of 64·k fields.
func TestKeyArrayPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		w := uint(1 + rng.Intn(32))
		n := rng.Intn(300)
		run := n
		if trial%2 == 1 {
			run = 64 * (1 + rng.Intn(3))
		}
		src := make([]uint32, n)
		for i := range src {
			src[i] = uint32(rng.Uint64() & (1<<w - 1))
		}
		a := newKeyArray(n, w)
		for i := range a.b {
			a.b[i] = 0xff // pack must overwrite every byte, padding too
		}
		for p := 0; p < n || p == 0; p += max(run, 1) {
			a.pack(p, src[p:min(n, p+run)])
		}
		b := newKeyArray(n, w)
		for i, v := range src {
			b.set(i, uint64(v))
		}
		if string(a.b) != string(b.b) {
			t.Fatalf("w=%d n=%d run=%d: pack differs from per-field sets", w, n, run)
		}
		got := make([]uint32, n)
		for p := 0; p < n; p += run {
			a.unpack(p, got[p:min(n, p+run)])
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("w=%d n=%d run=%d: unpack field %d = %d, want %d", w, n, run, i, got[i], src[i])
			}
		}
	}
}

// TestImportWidensKeys: keys wider than the importing array's (those of a
// device that was programmed with a key past its page count) widen it, every
// key kept, when they arrive in the word-aligned runs a restore moves them
// in — a wide key in a later run too — and narrow keys import into a widened
// array unchanged.
func TestImportWidensKeys(t *testing.T) {
	wide, narrow := newTestFlash(t), newTestFlash(t)
	oobs := map[PPN]OOB{0: {Key: 3}, 1: {Key: 1 << 12, Trans: true}, 2: {Key: 9, Trans: true},
		64: {Key: MaxPages, Trans: true}, 65: {Key: 1 << 20}, 1008: {Key: 5}}
	for _, p := range []PPN{0, 1, 2, 64, 65, 1008} { // in order within each block
		if _, err := wide.Program(p, oobs[p], 0, OpHostData); err != nil {
			t.Fatal(err)
		}
	}
	moveKeys := func(dst, src *Flash) {
		run := make([]uint32, 64)
		for p := 0; p < src.keys.n; p += len(run) {
			src.ExportKeys(p, run)
			dst.ImportKeys(p, run)
		}
	}
	moveKeys(narrow, wide)
	if narrow.keys.w != 32 {
		t.Fatalf("import of 32-bit keys left width %d", narrow.keys.w)
	}
	for p := PPN(0); p < PPN(narrow.keys.n); p++ {
		if got := narrow.PageOOB(p); got != oobs[p] {
			t.Fatalf("page %d OOB %+v after import, want %+v", p, got, oobs[p])
		}
	}
	moveKeys(wide, newTestFlash(t))
	for p := range oobs {
		if got := wide.PageOOB(p); got != (OOB{}) {
			t.Fatalf("page %d OOB %+v after import of an erased array", p, got)
		}
	}
}

// TestKeyWidthIsTheDevices: keys are packed at the bits a geometry's own
// largest packed key, 2·TotalPages − 1, needs.
func TestKeyWidthIsTheDevices(t *testing.T) {
	for _, c := range []struct {
		pages int64
		w     uint
	}{{1, 1}, {2, 2}, {1024, 11}, {1 << 18, 19}, {1<<21 + 1, 23}, {1 << 23, 24}, {MaxPages, 32}} {
		if got := keyWidth(c.pages); got != c.w {
			t.Errorf("keyWidth(%d) = %d, want %d", c.pages, got, c.w)
		}
	}
	f := newTestFlash(t)
	if f.keys.w != 11 {
		t.Fatalf("1024-page device packs keys at %d bits, want 11", f.keys.w)
	}
}

// TestProgramPageOOBZeroAlloc pins the packed keys' hot paths at 0
// allocations: a program that stores a key, the read of it back, and the
// block erase that clears the keys when the block fills.
func TestProgramPageOOBZeroAlloc(t *testing.T) {
	f := newTestFlash(t)
	ppb := f.Geometry().PagesPerBlock
	var p PPN
	var now Time
	allocs := testing.AllocsPerRun(1000, func() {
		if int(p) == ppb {
			for q := PPN(0); q < p; q++ {
				_ = f.Invalidate(q)
			}
			now, _ = f.Erase(0, now)
			p = 0
		}
		now, _ = f.Program(p, OOB{Key: int64(p) + 1, Trans: p&1 != 0}, now, OpHostData)
		if f.PageOOB(p).Key != int64(p)+1 {
			t.Fatal("key did not read back")
		}
		p++
	})
	if allocs != 0 {
		t.Fatalf("Program + PageOOB allocate %.1f times per call, want 0", allocs)
	}
}
