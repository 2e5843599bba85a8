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
	for _, x := range v {
		e.Int(x)
	}
}

// Words appends a length-prefixed []uint64 as fixed 8-byte little-endian
// values. Bitmap words are dense bit patterns, so the fixed encoding beats
// varints in both size and speed.
func (e *Encoder) Words(w []uint64) {
	e.U64(uint64(len(w)))
	for _, x := range w {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, x)
	}
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
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.err1("blob")
		return nil
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Blob()) }

// Words reads a length-prefixed fixed-width []uint64.
func (d *Decoder) Words() []uint64 {
	n := d.U64()
	if d.err != nil || n > uint64(d.Remaining())/8 {
		if d.err == nil {
			d.err1("words")
		}
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
	}
	return out
}

// Ints reads a length-prefixed signed-varint slice.
func (d *Decoder) Ints() []int {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}
