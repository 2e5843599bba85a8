package nand

import (
	"encoding/binary"
	"math/bits"
)

// keyArray is the flash array's OOB store: one packOOB value per physical
// page, packed back to back at w bits each, little-endian within the byte
// slice. A field starts at most 7 bits into its first byte, so at w <= 57
// it lies within eight bytes: a read is one unaligned 8-byte load, a shift
// and a mask, and a write merges into those same eight bytes. Seven bytes
// of tail padding keep the load of the last field inside the slice.
//
// The width starts at the device's own: packed keys of a geometry's LPNs
// and TPNs are below 2·TotalPages (keyWidth). A larger key widens the whole
// array once, by re-packing it; the device's own schemes never write one.
type keyArray struct {
	b    []byte
	w    uint   // bits per field, 1..57
	mask uint64 // 1<<w - 1
	n    int    // fields
}

// keyWidth is the field width a geometry's own keys need: a packed key is
// key<<1|trans with key < TotalPages, so at most 2·TotalPages − 1.
func keyWidth(pages int64) uint {
	return uint(bits.Len64(uint64(2*pages - 1)))
}

// keyBytes is the length of an array of n w-bit fields, tail padding
// included.
func keyBytes(n int64, w uint) int64 { return (n*int64(w)+7)/8 + 7 }

func newKeyArray(n int, w uint) keyArray {
	return keyArray{b: make([]byte, keyBytes(int64(n), w)), w: w, mask: 1<<w - 1, n: n}
}

// get returns field i.
func (a *keyArray) get(i int) uint64 {
	bit := uint(i) * a.w
	return binary.LittleEndian.Uint64(a.b[bit>>3:bit>>3+8]) >> (bit & 7) & a.mask
}

// set stores v in field i. v must fit the width (v <= a.mask; widen first
// when it does not), which keeps set small enough to inline.
func (a *keyArray) set(i int, v uint64) {
	bit := uint(i) * a.w
	b, s := a.b[bit>>3:bit>>3+8], bit&7
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^(a.mask<<s)|v<<s)
}

// widen re-packs the array at the width v (below 1<<57) needs, keeping
// every field.
func (a *keyArray) widen(v uint64) {
	wide := newKeyArray(a.n, uint(bits.Len64(v)))
	for i := 0; i < a.n; i++ {
		wide.set(i, a.get(i))
	}
	*a = wide
}

// clear zeroes fields [lo, hi): the bytes wholly inside the range in bulk,
// the two boundary bytes it shares with its neighbours by merge.
func (a *keyArray) clear(lo, hi int) {
	if lo >= hi {
		return
	}
	b0, b1 := uint(lo)*a.w, uint(hi)*a.w // bit range [b0, b1)
	first, last := b0>>3, (b1-1)>>3
	loMask := byte(0xff) << (b0 & 7)
	hiMask := byte(0xff) >> (7 - ((b1 - 1) & 7))
	if first == last {
		a.b[first] &^= loMask & hiMask
		return
	}
	a.b[first] &^= loMask
	clear(a.b[first+1 : last])
	a.b[last] &^= hiMask
}

// unpack fills dst with fields [p, p+len(dst)), in one sequential pass.
func (a *keyArray) unpack(p int, dst []uint32) {
	for i := range dst {
		dst[i] = uint32(a.get(p + i))
	}
}

// pack overwrites fields [p, p+len(src)) with src in one sequential pass and
// returns the OR of src. p must be a multiple of 64, and so must len(src)
// unless the run ends the array: the run then starts and ends on a word
// boundary at any width, so its whole-word stores touch no field outside
// it. When the OR is wider than the array, the run's own fields overlap,
// and the caller widens the array and packs the run again. The fields
// accumulate in a 64-bit word that is stored whole when full, so no byte is
// read back; the bits of a field that overflow the stored word start the
// next one. A run that ends the array zeroes the tail padding.
func (a *keyArray) pack(p int, src []uint32) (all uint32) {
	var acc uint64
	var nacc uint
	o := p * int(a.w) / 8
	for _, v := range src {
		all |= v
		acc |= uint64(v) << nacc
		if nacc += a.w; nacc >= 64 {
			binary.LittleEndian.PutUint64(a.b[o:o+8], acc)
			o += 8
			nacc -= 64
			acc = uint64(v) >> (a.w - nacc) // 0 when v ended the word
		}
	}
	if p+len(src) < a.n {
		return all
	}
	for ; nacc > 0; nacc -= min(nacc, 8) {
		a.b[o] = byte(acc)
		acc >>= 8
		o++
	}
	clear(a.b[o:])
	return all
}
