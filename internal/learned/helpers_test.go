package learned

// FitExactCapped fits exact pieces over pts and keeps the maxPieces that
// cover the most points (capPieces): the fit of the reference TrainFull
// the in-place model is pinned against.
func FitExactCapped(pts []Point, maxPieces int) (kept []Piece, covered int) {
	return capPieces(FitExact(pts), pts, maxPieces)
}

// Trained reports whether the model has ever been trained or initialized.
func (m *InPlaceModel) Trained() bool { return m.base != unsetBase }

// NumPieces returns the number of live linear pieces.
func (m *InPlaceModel) NumPieces() int { return len(m.pieces) }

// ClearRange zeroes bits [lo, hi).
func (b *Bitmap) ClearRange(lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		b.words[w] &^= wordMask(w, lo, hi)
	}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }
