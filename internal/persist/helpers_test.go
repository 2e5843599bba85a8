package persist

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(p []byte) {
	e.U64(uint64(len(p)))
	e.buf = append(e.buf, p...)
}
