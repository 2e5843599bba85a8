package learned

import "math"

// Point is one (key, position) training sample; for FTLs the key is an LPN
// (or LPN offset) and the position a VPPN (or VPPN offset).
type Point struct {
	X int64
	Y int64
}

// Piece is one linear model y = K·x + B valid for x ≥ Off (until the next
// piece's Off). It matches the paper's <k, b, off> parameter entries
// (Fig. 8): the prediction is computed from the model's global offset, the
// piece boundary only selects which parameters apply.
type Piece struct {
	Off int64
	K   float64
	B   float64
}

// Predict evaluates the piece at x with the paper's rounding mode.
func (p Piece) Predict(x int64) int64 {
	return int64(math.Round(p.K*float64(x) + p.B))
}

// FitExact runs a greedy exact (error bound 0) piecewise linear fit over the
// points, which must be sorted by X with no duplicate X. It returns maximal
// pieces such that every covered point is predicted exactly under rounding.
//
// Exactness is decided in integer arithmetic (rational slope consistency):
// point (x,y) extends a segment anchored at (x0,y0) with slope dy/dx iff
// (y-y0)·dx == (x-x0)·dy. This avoids float comparisons entirely; the float
// K,B emitted per piece reproduce the integers exactly under rounding
// because all intermediate values are far below 2^53.
func FitExact(pts []Point) []Piece { return appendFitExact(nil, pts) }

// appendFitExact appends FitExact's pieces to out, so a caller with room
// for them fits without allocating.
func appendFitExact(out []Piece, pts []Point) []Piece {
	i := 0
	for i < len(pts) {
		x0, y0 := pts[i].X, pts[i].Y
		j := i + 1
		if j >= len(pts) {
			out = append(out, Piece{Off: x0, K: 0, B: float64(y0)})
			break
		}
		dx := pts[j].X - x0
		dy := pts[j].Y - y0
		j++
		for j < len(pts) {
			if (pts[j].Y-y0)*dx != (pts[j].X-x0)*dy {
				break
			}
			j++
		}
		k := float64(dy) / float64(dx)
		out = append(out, Piece{Off: x0, K: k, B: float64(y0) - k*float64(x0)})
		i = j
	}
	return out
}

// pieceCoverage returns, for each piece of pieces fitted over pts, the
// number of points it covers. Helper for coverage-based piece selection.
func pieceCoverage(pieces []Piece, pts []Point) []int {
	cov := make([]int, len(pieces))
	pi := 0
	for _, pt := range pts {
		for pi+1 < len(pieces) && pt.X >= pieces[pi+1].Off {
			pi++
		}
		cov[pi]++
	}
	return cov
}

// capPieces keeps, of pieces fitted exactly over pts, the maxPieces that
// cover the most points, and returns them with the number of points they
// predict exactly. This is the paper's fixed-size parameter array: the
// bitmap filter zeroes everything the kept pieces do not predict exactly.
// Pieces come back as they are — covering every point — when at most
// maxPieces of them were fitted, so that case allocates nothing.
func capPieces(pieces []Piece, pts []Point, maxPieces int) (kept []Piece, covered int) {
	if len(pieces) == 0 {
		return nil, 0
	}
	if len(pieces) <= maxPieces {
		return pieces, len(pts)
	}
	cov := pieceCoverage(pieces, pts)
	// Select indexes of the maxPieces best-covering pieces.
	type ic struct{ idx, cov int }
	order := make([]ic, len(pieces))
	for i := range pieces {
		order[i] = ic{i, cov[i]}
	}
	// Partial selection sort: maxPieces is small (default 8).
	for i := 0; i < maxPieces; i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if order[j].cov > order[best].cov {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sel := order[:maxPieces]
	// Rebuild in Off order.
	keepIdx := make([]bool, len(pieces))
	for _, s := range sel {
		keepIdx[s.idx] = true
		covered += s.cov
	}
	for i, p := range pieces {
		if keepIdx[i] {
			kept = append(kept, p)
		}
	}
	return kept, covered
}

// Segment is a LeaFTL learned segment [S, K, L, I] with error bound Err
// (paper §II-C): it indexes LPNs in [S, S+L-1] with the model
// VPPN = K·(LPN-S) + I, guaranteeing |prediction − actual| ≤ Err for the
// points it was trained on. Err == 0 marks an accurate segment.
//
// The two 4-byte fields sit together at the end so the struct is 32 bytes.
// It is the form segments are fitted, inserted, looked up and snapshotted
// in; an LSMT stores each packed into a 24-byte record.
type Segment struct {
	S   int64   // starting LPN
	K   float64 // slope
	I   float64 // intercept at S
	L   int32   // covered span: LPNs S .. S+L-1
	Err int32   // max training error after rounding
}

// Contains reports whether lpn falls in the segment's key range.
func (s Segment) Contains(lpn int64) bool {
	return lpn >= s.S && lpn < s.S+int64(s.L)
}

// Predict evaluates the segment at lpn with rounding.
func (s Segment) Predict(lpn int64) int64 {
	return int64(math.Round(s.K*float64(lpn-s.S) + s.I))
}

// SegmentBytes is the in-memory size LeaFTL charges per segment: four
// parameters of 4 bytes (paper §II-C).
const SegmentBytes = 16

// FitSegments runs the greedy error-bounded PLR used by LeaFTL over points
// sorted by X (no duplicate X), with error bound gamma and a maximum of
// maxLen points per segment (LeaFTL caps a segment at 256 mappings). The
// shrinking-cone construction anchors each segment at its first point and
// narrows the feasible slope interval point by point. The segments come out
// sorted by S without overlaps, each spanning at least one LPN: one run
// for LSMT.Insert.
func FitSegments(pts []Point, gamma int64, maxLen int) []Segment {
	return AppendFitSegments(nil, pts, gamma, maxLen)
}

// AppendFitSegments appends FitSegments' segments to out, so a caller with
// room for them fits without allocating.
func AppendFitSegments(out []Segment, pts []Point, gamma int64, maxLen int) []Segment {
	i := 0
	for i < len(pts) {
		x0, y0 := pts[i].X, pts[i].Y
		loK, hiK := math.Inf(-1), math.Inf(1)
		j := i + 1
		for j < len(pts) && j-i < maxLen {
			dx := float64(pts[j].X - x0)
			lo := (float64(pts[j].Y-y0) - float64(gamma)) / dx
			hi := (float64(pts[j].Y-y0) + float64(gamma)) / dx
			nlo, nhi := math.Max(loK, lo), math.Min(hiK, hi)
			if nlo > nhi {
				break
			}
			loK, hiK = nlo, nhi
			j++
		}
		var k float64
		switch {
		case j == i+1:
			k = 0 // single-point segment
		case math.IsInf(loK, -1):
			k = hiK
		case math.IsInf(hiK, 1):
			k = loK
		default:
			k = (loK + hiK) / 2
		}
		seg := Segment{
			S: x0,
			L: int32(pts[j-1].X - x0 + 1),
			K: k,
			I: float64(y0),
		}
		// Measure the realized max error after rounding, so Err==0 really
		// means "always exact".
		var maxErr int64
		for t := i; t < j; t++ {
			e := seg.Predict(pts[t].X) - pts[t].Y
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
		seg.Err = int32(maxErr)
		out = append(out, seg)
		i = j
	}
	return out
}
