package persist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder serializes device state into a deterministic byte stream:
// unsigned and zig-zag varints for integers, fixed 8-byte little-endian
// bit patterns for floats (so NaN payloads and signed zeros round-trip
// exactly), and length-prefixed blobs. The same state always encodes to
// the same bytes — snapshot equality is state equality.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Data returns the encoded bytes.
func (e *Encoder) Data() []byte { return e.buf }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a zig-zag signed varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 as its fixed 8-byte little-endian bit pattern.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Ints appends a length-prefixed signed-varint slice.
func (e *Encoder) Ints(v []int) {
	e.U64(uint64(len(v)))
	PutRun(e, Varints, v)
}

// Words appends a length-prefixed []uint64 as fixed 8-byte little-endian
// values. Bitmap words are dense bit patterns, so the fixed encoding beats
// varints in both size and speed.
func (e *Encoder) Words(w []uint64) {
	e.U64(uint64(len(w)))
	PutRun(e, "f", w)
}

// Integer is the cell type of a bulk run.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// Layout is the shape of one record of a bulk run, one letter per field:
// 'v' is a zig-zag varint (what I64 writes), 'u' an unsigned varint (what
// U64 writes) and 'f' a fixed 8-byte little-endian word (what F64 writes;
// the cell holds the float's bit pattern). A run's cells are its records'
// fields back to back, so a run of n records has n·len(layout) cells.
type Layout string

// Varints is the layout of a plain run of signed integers.
const Varints Layout = "v"

// PutRun appends cells, a run of records laid out as l, as the bytes the
// per-field Encoder calls would write. It grows the buffer at most once: by
// room for the run with every field a 32-bit value (a wider one grows it as
// append does), and to at least twice its length, so that a snapshot's
// buffer is reallocated a logarithmic number of times.
func PutRun[T Integer](e *Encoder, l Layout, cells []T) {
	per := 0
	for _, k := range []byte(l) {
		per += 5
		if k == 'f' {
			per += 3
		}
	}
	buf := e.buf
	if need := (len(cells) + len(l) - 1) / len(l) * per; cap(buf)-len(buf) < need {
		buf = grow(buf, max(need, len(buf)))
	}
	if l == Varints { // the large sections: the L2P, the GTD and the OOB
		for _, c := range cells {
			buf = binary.AppendUvarint(buf, zigzag(int64(c)))
		}
		e.buf = buf
		return
	}
	j := 0
	for _, c := range cells {
		switch l[j] {
		case 'v':
			buf = binary.AppendUvarint(buf, zigzag(int64(c)))
		case 'u':
			buf = binary.AppendUvarint(buf, uint64(c))
		default:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		}
		if j++; j == len(l) {
			j = 0
		}
	}
	e.buf = buf
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// grow returns buf with room for n more bytes, in one allocation when it
// has to move. (slices.Grow's append of a fresh slice allocates that slice
// too when the compiler does not fold it, as under -race.)
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	moved := make([]byte, len(buf), len(buf)+n)
	copy(moved, buf)
	return moved
}

// Decoder reads back an Encoder's stream with a sticky error: after the
// first malformed read every subsequent read returns the zero value, so
// load paths can decode straight-line and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// err1 latches the sticky error with the failing read's context.
func (d *Decoder) err1(context string) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: truncated or corrupt snapshot (%s at offset %d)", context, d.off)
	}
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err1("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Count reads an element count: a U64 that fails when it exceeds the bytes
// left. Every element encodes to at least one byte, so a corrupt count can
// neither size an allocation nor drive a loop past the stream.
func (d *Decoder) Count() int {
	n := d.U64()
	if d.err == nil && n > uint64(d.Remaining()) {
		d.err1("count")
		return 0
	}
	return int(n)
}

// I64 reads a zig-zag signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err1("varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.err1("bool")
		return false
	}
	v := d.buf[d.off]
	d.off++
	return v != 0
}

// F64 reads a fixed 8-byte float64 bit pattern.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err1("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Blob reads a length-prefixed byte slice (a view into the decoder's
// buffer; copy before retaining).
func (d *Decoder) Blob() []byte {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Blob()) }

// Words reads a length-prefixed fixed-width []uint64.
func (d *Decoder) Words() []uint64 {
	n := d.Count()
	if d.err == nil && n > d.Remaining()/8 {
		d.err1("words")
	}
	if d.err != nil {
		return nil
	}
	out := make([]uint64, n)
	GetRun(d, "f", out, 0, 0)
	return out
}

// Ints reads a length-prefixed signed-varint slice.
func (d *Decoder) Ints() []int {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	GetRun(d, Varints, out, math.MinInt64, math.MaxInt64)
	return out
}

// GetRun fills cells with a run of records laid out as l, in one pass. Each
// 'v' field must lie in [lo, hi], which must lie within T: GetRun stops at
// the first that does not and returns its index in cells and its value, for
// the caller's error; otherwise it returns -1. A truncated or malformed
// field latches the decoder's error as the per-field read would, and GetRun
// returns -1.
func GetRun[T Integer](d *Decoder, l Layout, cells []T, lo, hi int64) (bad int, v int64) {
	if d.err != nil {
		return -1, 0
	}
	buf, o := d.buf, d.off
	if l == Varints { // the large sections: the L2P, the GTD and the OOB
		for i := range cells {
			x, next := uvarint(buf, o)
			if next < 0 {
				d.off = o
				d.err1("varint")
				return -1, 0
			}
			o = next
			v := unzigzag(x)
			if v < lo || v > hi {
				d.off = o
				return i, v
			}
			cells[i] = T(v)
		}
		d.off = o
		return -1, 0
	}
	j := 0
	for i := range cells {
		k := l[j]
		if j++; j == len(l) {
			j = 0
		}
		var x uint64
		if k == 'f' {
			if len(buf)-o < 8 {
				d.off = o
				d.err1("float64")
				return -1, 0
			}
			x = binary.LittleEndian.Uint64(buf[o:])
			o += 8
		} else {
			next := 0
			if x, next = uvarint(buf, o); next < 0 {
				d.off = o
				if k == 'v' {
					d.err1("varint")
				} else {
					d.err1("uvarint")
				}
				return -1, 0
			}
			o = next
			if k == 'v' {
				v := unzigzag(x)
				if v < lo || v > hi {
					d.off = o
					return i, v
				}
				x = uint64(v)
			}
		}
		cells[i] = T(x)
	}
	d.off = o
	return -1, 0
}

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// uvarint decodes the unsigned varint at buf[o:] and returns it with the
// offset past it, or next = -1 where binary.Uvarint fails: the varint is
// truncated or overflows 64 bits.
func uvarint(buf []byte, o int) (x uint64, next int) {
	for s := uint(0); s < 63; s += 7 {
		if o >= len(buf) {
			return 0, -1
		}
		c := buf[o]
		o++
		if c < 0x80 {
			return x | uint64(c)<<s, o
		}
		x |= uint64(c&0x7f) << s
	}
	if o >= len(buf) || buf[o] > 1 {
		return 0, -1
	}
	return x | uint64(buf[o])<<63, o + 1
}
