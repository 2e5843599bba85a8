package learned

import (
	"fmt"
	"math"
)

// unsetBase marks an untrained model.
const unsetBase = math.MinInt64

// DefaultMaxPieces is the paper's default piecewise-linear model size
// ("8 pieces are set by default", §IV-A).
const DefaultMaxPieces = 8

// InPlaceModel is the in-place-update linear model of LearnedFTL §III-B:
// a piecewise linear regression with a fixed-capacity parameter array
// <k,b,off>[N] plus a bitmap filter with one bit per LPN of the GTD entry.
//
// The model predicts VPPN offsets relative to a base VPPN recorded at
// training time; bit i == 1 guarantees Predict(i) returns the exact VPPN.
// Because the bitmap gates every prediction, a lookup never probes flash on
// a guess: it either returns the true location or reports a miss.
//
// The fields a read uses, Stamp's and Predict's, come first, so that they
// lie within the model's first 64 bytes: a read that misses the memo loads
// one cache line of the model, not two.
type InPlaceModel struct {
	span   int
	stamp  uint64 // names the answers Predict gives; see Stamp
	base   int64  // base VPPN; unsetBase when untrained
	pieces []Piece
	bm     Bitmap

	maxPieces int
	// bits[i] counts the set bitmap bits in pieces[i]'s ownership range,
	// [pieces[i].Off, pieces[i+1].Off or span); live counts the pieces whose
	// count is nonzero. A single-offset SequentialInit decides refusal from
	// them without building the candidate array.
	bits []int32
	live int
	sc   *Scratch // where stamps come from
}

// NewInPlaceModel returns an untrained model with its own stamp counter,
// covering span LPN offsets with at most maxPieces linear pieces.
func NewInPlaceModel(span, maxPieces int) *InPlaceModel {
	return new(Scratch).NewInPlaceModel(span, maxPieces)
}

// NewInPlaceModel returns an untrained model stamped from sc, covering span
// LPN offsets with at most maxPieces linear pieces. maxPieces must be at
// least 1: ftl.Config.Validate holds a device's MaxPieces to that.
func (sc *Scratch) NewInPlaceModel(span, maxPieces int) *InPlaceModel {
	return &InPlaceModel{
		span:      span,
		maxPieces: maxPieces,
		base:      unsetBase,
		pieces:    make([]Piece, 0, maxPieces),
		bm:        *NewBitmap(span),
		bits:      make([]int32, 0, maxPieces),
		sc:        sc,
		stamp:     sc.nextStamp(),
	}
}

// Stamp names the answers Predict gives: the model takes a stamp no model or
// table sharing its Scratch ever had when it is made and at every change of
// its base, pieces or bitmap. So two Predicts of one offset under one stamp
// return the same answer.
func (m *InPlaceModel) Stamp() uint64 { return m.stamp }

// AccurateBits returns the number of LPN offsets with guaranteed-exact
// predictions.
func (m *InPlaceModel) AccurateBits() int { return m.bm.Count() }

// CanPredict reports whether offset off has a guaranteed-exact prediction.
func (m *InPlaceModel) CanPredict(off int) bool {
	return off >= 0 && off < m.span && m.bm.Get(off)
}

// Predict returns the VPPN for LPN offset off. ok is false when the bitmap
// filter marks the offset inaccurate (the caller must fall back to the
// demand-paging path). When ok is true the result is exact — that is the
// §III-B contract that eliminates miss penalties.
func (m *InPlaceModel) Predict(off int) (vppn int64, ok bool) {
	if !m.CanPredict(off) {
		return 0, false
	}
	p, ok := m.pieceFor(int64(off))
	if !ok {
		return 0, false
	}
	return m.base + p.Predict(int64(off)), true
}

// pieceFor returns the piece owning offset x: the piece with the largest
// Off <= x. A model holds a handful of pieces (DefaultMaxPieces), sorted by
// Off, so it scans them from the last.
func (m *InPlaceModel) pieceFor(x int64) (Piece, bool) {
	for i := len(m.pieces) - 1; i >= 0; i-- {
		if m.pieces[i].Off <= x {
			return m.pieces[i], true
		}
	}
	return Piece{}, false
}

// Invalidate clears the accuracy bit of offset off. The write path calls
// this for every overwritten LPN to keep the model consistent (§III-B:
// "LearnedFTL first checks if the corresponding bit of this LPN in the
// bitmap is 1; if so, set it to 0").
func (m *InPlaceModel) Invalidate(off int) {
	if off < 0 || off >= m.span || !m.bm.Get(off) {
		return
	}
	m.bm.Clear(off)
	m.stamp = m.sc.nextStamp()
	// TrainFull sets only offsets a piece predicts and SequentialInit only
	// its new piece's, so only an imported state can hold a bit before the
	// first piece, which no count includes.
	if i := m.pieceIndex(int64(off)); i >= 0 {
		if m.bits[i]--; m.bits[i] == 0 {
			m.live--
		}
	}
}

// pieceIndex returns the index of the piece owning offset x, -1 when x lies
// before the first piece.
func (m *InPlaceModel) pieceIndex(x int64) int {
	i := len(m.pieces) - 1
	for i >= 0 && m.pieces[i].Off > x {
		i--
	}
	return i
}

// pieceEnd returns the end of piece i's ownership range.
func (m *InPlaceModel) pieceEnd(i int) int64 {
	if i+1 < len(m.pieces) {
		return m.pieces[i+1].Off
	}
	return int64(m.span)
}

// recount recomputes bits and live from the bitmap.
func (m *InPlaceModel) recount() {
	m.bits = m.bits[:0]
	m.live = 0
	for i, p := range m.pieces {
		c := m.bm.CountRange(int(p.Off), int(m.pieceEnd(i)))
		m.bits = append(m.bits, int32(c))
		if c > 0 {
			m.live++
		}
	}
}

// TrainFull retrains the model from scratch (the GC-time training of
// §III-E2). vppns[i] is the VPPN of LPN offset i, or a negative value when
// the LPN holds no valid data. base must be chosen so all offsets fit;
// conventionally the smallest VPPN present. Returns the number of offsets
// that trained to exact predictions.
func (m *InPlaceModel) TrainFull(base int64, vppns []int64) int {
	if len(vppns) != m.span {
		panic("learned: TrainFull length mismatch")
	}
	// One paper-sized translation page of points fits the stack frame; a
	// wider model's append moves them to the heap.
	var frame [512]Point
	pts := frame[:0]
	for off, v := range vppns {
		if v >= 0 {
			pts = append(pts, Point{X: int64(off), Y: v - base})
		}
	}
	m.bm.Reset()
	m.pieces = m.pieces[:0]
	m.stamp = m.sc.nextStamp()
	if len(pts) == 0 {
		m.base = unsetBase
		m.recount()
		return 0
	}
	m.base = base
	// A fit of at most DefaultMaxPieces pieces stays in the frame too; only
	// one that must be capped ranks its pieces on the heap.
	var fit [DefaultMaxPieces]Piece
	kept, _ := capPieces(appendFitExact(fit[:0], pts), pts, m.maxPieces)
	m.pieces = append(m.pieces, kept...)
	// Evaluate: only offsets the kept pieces predict exactly get a 1 bit
	// (§III-E2 step ④).
	exact := 0
	for _, pt := range pts {
		p, ok := m.pieceFor(pt.X)
		if ok && p.Predict(pt.X) == pt.Y {
			m.bm.Set(int(pt.X))
			exact++
		}
	}
	m.recount()
	return exact
}

// SequentialInit performs the computation-free model initialization of
// §III-E1: a write of n consecutive LPN offsets starting at startOff that
// landed on n consecutive VPPNs starting at firstVPPN is itself a y=x linear
// model, installed in place. Returns false when the update is skipped
// (existing coverage is at least as long, or the piece array is full).
func (m *InPlaceModel) SequentialInit(startOff, n int, firstVPPN int64) bool {
	if n <= 0 || startOff < 0 || startOff+n > m.span {
		return false
	}
	// Step ③: the existing model's coverage over the affected range, read
	// from the bitmap. (The write path already cleared these bits, but the
	// rule compares against overall piece coverage to avoid churning a
	// well-trained model for a short write.)
	if old := m.bm.CountRange(startOff, startOff+n); old >= n {
		return false
	}
	m.stamp = m.sc.nextStamp()
	if m.base == unsetBase {
		m.base = firstVPPN
	}
	s, e := int64(startOff), int64(startOff+n)
	if n == 1 && m.refusesSplit(s) {
		return false
	}
	np := Piece{Off: s, K: 1, B: float64(firstVPPN-m.base) - float64(s)}
	if !m.insertPiece(np, s, e) {
		return false
	}
	// Step ④: the new piece is exact by construction over [s, e).
	m.bm.SetRange(startOff, startOff+n)
	m.recount()
	return true
}

// refusesSplit reports, from the per-piece counts, whether insertPiece would
// refuse a one-offset piece at s, whose bit is clear. The candidate keeps
// every live piece but the one s splits, their ranges unchanged, plus the
// new piece and the split piece's head [Off, s) and tail [s+1, end) where
// they hold bits: live+1 pieces at least, live+2 when the split piece holds
// bits on both sides of s. Offsets before the first piece split nothing.
func (m *InPlaceModel) refusesSplit(s int64) bool {
	switch {
	case m.live >= m.maxPieces:
		return true
	case m.live+2 <= m.maxPieces:
		return false
	}
	i := m.pieceIndex(s)
	if i < 0 || m.bits[i] == 0 {
		return false
	}
	// One count over the shorter side tells whether both sides hold bits.
	lo, hi, total := m.pieces[i].Off, m.pieceEnd(i), int(m.bits[i])
	var head int
	if s-lo <= hi-s-1 {
		head = m.bm.CountRange(int(lo), int(s))
	} else {
		head = total - m.bm.CountRange(int(s)+1, int(hi))
	}
	return head > 0 && head < total
}

// insertPiece splices a new piece covering [s, e) into the sorted piece
// array, trimming overlapped pieces (the Fig. 10 "modify off2 of model2"
// adjustment) and preserving the tail of a piece that extends past e.
// Returns false, leaving the model untouched, if the result would exceed the
// fixed capacity. The candidate array — at most two pieces longer than the
// live one — is staged in the stack frame and copied over the model's own
// array once it is known to fit, so a write allocates nothing (a model of
// more than DefaultMaxPieces pieces stages on the heap).
func (m *InPlaceModel) insertPiece(np Piece, s, e int64) bool {
	var frame [DefaultMaxPieces + 2]Piece
	out := frame[:0]
	inserted := false
	for i, p := range m.pieces {
		pEnd := m.pieceEnd(i)
		if pEnd <= s || p.Off >= e {
			// Untouched piece; emit new piece before any later piece.
			if !inserted && p.Off >= e {
				out = append(out, np)
				inserted = true
			}
			out = append(out, p)
			continue
		}
		// Overlap: keep the head [p.Off, s) under the old parameters.
		if p.Off < s {
			out = append(out, p)
		}
		if !inserted {
			out = append(out, np)
			inserted = true
		}
		// Keep the tail [e, pEnd) under the old parameters: same K/B with a
		// bumped Off, exactly the paper's off adjustment.
		if pEnd > e {
			out = append(out, Piece{Off: e, K: p.K, B: p.B})
		}
	}
	if !inserted {
		out = append(out, np)
	}
	out = m.pruneDead(out, s, e)
	if len(out) > m.maxPieces {
		return false
	}
	m.pieces = append(m.pieces[:0], out...)
	return true
}

// pruneDead drops pieces whose ownership range contains no accurate bits and
// will not contain any after the pending SetRange(s, e): they can never
// produce a prediction, so removing them only re-assigns dead offsets to an
// earlier (equally silent) piece. This keeps the fixed-capacity array from
// filling up with trimmed-off remainders.
func (m *InPlaceModel) pruneDead(pieces []Piece, s, e int64) []Piece {
	out := pieces[:0]
	for i, p := range pieces {
		pEnd := int64(m.span)
		if i+1 < len(pieces) {
			pEnd = pieces[i+1].Off
		}
		if p.Off <= s && s < pEnd || p.Off < e && e <= pEnd || (s <= p.Off && pEnd <= e) {
			// Overlaps the about-to-be-set range: live.
			out = append(out, p)
			continue
		}
		if m.bm.AnyRange(int(p.Off), int(pEnd)) {
			out = append(out, p)
		}
	}
	return out
}

// ModelState is the portable form of an in-place model for device
// snapshots: the base VPPN (unset sentinel included), the live pieces and
// the raw bitmap words.
type ModelState struct {
	Base   int64
	Pieces []Piece
	Bits   []uint64
}

// ExportState copies the model's mutable state.
func (m *InPlaceModel) ExportState() ModelState {
	return ModelState{
		Base:   m.base,
		Pieces: append([]Piece(nil), m.pieces...),
		Bits:   append([]uint64(nil), m.bm.words...),
	}
}

// ImportState replaces the model's mutable state with a previously exported
// one. The model must have been constructed with the same span and piece
// capacity.
func (m *InPlaceModel) ImportState(s ModelState) error {
	if len(s.Bits) != len(m.bm.words) {
		return fmt.Errorf("learned: import of %d bitmap words into %d-word model", len(s.Bits), len(m.bm.words))
	}
	if len(s.Pieces) > m.maxPieces {
		return fmt.Errorf("learned: import of %d pieces into %d-piece model", len(s.Pieces), m.maxPieces)
	}
	m.base = s.Base
	m.pieces = append(m.pieces[:0], s.Pieces...)
	copy(m.bm.words, s.Bits)
	m.recount()
	m.stamp = m.sc.nextStamp()
	return nil
}

// SizeBytes returns the DRAM footprint the paper charges per model: the
// <k,b,off> parameter array at 6 bytes per piece (float16 k, float16 b,
// uint16 off), the bitmap, and the 16-byte header (base VPPN + bookkeeping).
// With the defaults (8 pieces, 512-bit bitmap) this is the paper's 128 B.
func (m *InPlaceModel) SizeBytes() int {
	return m.maxPieces*6 + m.bm.SizeBytes() + 16
}
