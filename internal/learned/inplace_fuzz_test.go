package learned

import "testing"

// fuzzSpan is the fuzzed models' span: a byte addresses every offset.
const fuzzSpan = 256

// FuzzInPlaceModel decodes its input into a sequence of model operations
// and holds the model to refModel after each one: every operation's result,
// every Predict, the exported state and the per-piece bit counts. It holds
// the stamp to its contract too: a model whose stamp an operation kept
// predicts every offset as before it, and a new stamp is one no model of
// the run had before. The first
// byte sets the piece capacity, 1 + b%8. An operation is one byte, op,
// followed by what it reads:
//
//   - op%4 == 0: Invalidate the offset of the next byte.
//   - op%4 == 1: SequentialInit of n = 1 + op>>2%64 offsets at the next
//     byte (reduced so the run fits), after invalidating the first
//     b%(n+1) of them, b the byte after; the write path clears the whole
//     run, but a set bit refuses the update.
//   - op%4 == 2: TrainFull over runs of consecutive VPPNs, one byte each:
//     1 + b>>2 offsets, b%4 selecting a hole, a continued run, a short jump
//     or a long one. Offsets past the last byte read are holes.
//   - op%4 == 3: with op>>2 odd and a state saved, roll the model back to
//     it, an Import in place; otherwise Export, save the state and Import
//     it into a fresh model sharing the stamp counter, which the
//     operations that follow use.
//
// Bytes past maxFuzzOps operations are ignored.
func FuzzInPlaceModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		maxPieces := 1 + int(data[0]%8)
		data = data[1:]
		sc := new(Scratch)
		m, ref := sc.NewInPlaceModel(fuzzSpan, maxPieces), newRefModel(fuzzSpan, maxPieces)
		next := int64(1000)
		vppns := make([]int64, fuzzSpan)
		seen := map[uint64]bool{m.Stamp(): true}
		var before, after [fuzzSpan]prediction
		var saved *ModelState
		for step := 0; step < maxFuzzOps && len(data) > 0; step++ {
			stamp := m.Stamp()
			predictAll(m, &before)
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 0:
				if len(data) < 1 {
					return
				}
				m.Invalidate(int(data[0]))
				ref.invalidate(int(data[0]))
				data = data[1:]
			case 1:
				if len(data) < 2 {
					return
				}
				n := 1 + int(op>>2%64)
				off := int(data[0]) % (fuzzSpan - n + 1)
				for i := off; i < off+int(data[1])%(n+1); i++ {
					m.Invalidate(i)
					ref.invalidate(i)
				}
				data = data[2:]
				if got, want := m.SequentialInit(off, n, next), ref.sequentialInit(off, n, next); got != want {
					t.Fatalf("step %d: SequentialInit(%d, %d) = %v, reference %v", step, off, n, got, want)
				}
				next += int64(n)
			case 2:
				base := next
				for off := 0; off < fuzzSpan; {
					if len(data) == 0 {
						vppns[off] = -1
						off++
						continue
					}
					b := data[0]
					data = data[1:]
					switch b % 4 {
					case 2:
						next += 3
					case 3:
						next += 1000
					}
					for i := 0; i <= int(b>>2) && off < fuzzSpan; i++ {
						vppns[off] = next
						if b%4 == 0 {
							vppns[off] = -1
						}
						next++
						off++
					}
				}
				if got, want := m.TrainFull(base, vppns), ref.trainFull(base, vppns); got != want {
					t.Fatalf("step %d: TrainFull = %d, reference %d", step, got, want)
				}
			case 3:
				if op>>2%2 == 1 && saved != nil {
					if err := m.ImportState(*saved); err != nil {
						t.Fatalf("step %d: the model's saved state does not import: %v", step, err)
					}
					ref.base, ref.pieces = saved.Base, append([]Piece(nil), saved.Pieces...)
					copy(ref.bm.words, saved.Bits)
					break
				}
				st := m.ExportState()
				saved = &st
				fresh := sc.NewInPlaceModel(fuzzSpan, maxPieces)
				if err := fresh.ImportState(st); err != nil {
					t.Fatalf("step %d: the model's own state does not import: %v", step, err)
				}
				m = fresh
			}
			if d := modelDiverges(m, ref); d != "" {
				t.Fatalf("step %d (op %d): %s", step, op%4, d)
			}
			switch s := m.Stamp(); {
			case s == stamp:
				if predictAll(m, &after); after != before {
					t.Fatalf("step %d (op %d): the predictions changed under stamp %d", step, op%4, s)
				}
			case seen[s]:
				t.Fatalf("step %d (op %d): stamp %d again", step, op%4, s)
			default:
				seen[s] = true
			}
		}
	})
}

// prediction is one Predict answer.
type prediction struct {
	vppn int64
	ok   bool
}

// predictAll stores m's answer for every offset in out.
func predictAll(m *InPlaceModel, out *[fuzzSpan]prediction) {
	for off := range out {
		out[off].vppn, out[off].ok = m.Predict(off)
	}
}
