package learned

import "testing"

const maxFuzzOps = 120

// FuzzLSMT decodes its input into a sequence of table operations and holds
// the table to refLSMT after each one: every lookup, what a snapshot
// carries, the segment count and every compaction's dropped count. An
// operation is one byte, op, followed by what it reads:
//
//   - op%4 == 0: CompactShadowed.
//   - op%4 == 1: Export into a fresh table's Import, which the operations
//     that follow use.
//   - otherwise: Insert a batch of 1 + op>>2%4 segments, three bytes each
//     (start, span, error). With op&0x40 set the batch is one sorted run
//     with gaps, as FitSegments fits one translation page; without, each
//     segment is placed on its own, overlapping as often as not.
//
// Bytes past maxFuzzOps operations are ignored: the reference costs grow
// with the square of the levels, which one operation can deepen by four.
func FuzzLSMT(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lt, ref := NewLSMT(), &refLSMT{}
		for step := 0; step < maxFuzzOps && len(data) > 0; step++ {
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 0:
				if got, want := lt.CompactShadowed(), ref.compactShadowed(); got != want {
					t.Fatalf("step %d: compaction dropped %d segments, the reference %d", step, got, want)
				}
			case 1:
				fresh := NewLSMT()
				if err := fresh.Import(lt.Export(nil)); err != nil {
					t.Fatalf("step %d: the table's own segments do not import: %v", step, err)
				}
				lt = fresh
			default:
				var batch []Segment
				s := int64(0)
				for i := 0; i <= int(op>>2%4) && len(data) >= 3; i++ {
					if i == 0 || op&0x40 == 0 {
						s = int64(data[0]) % (lsmtKeys - 1)
					} else {
						s += int64(data[0] % 16)
					}
					if s >= lsmtKeys {
						break
					}
					l := 1 + int64(data[1])%min(30, lsmtKeys-s)
					batch = append(batch, Segment{S: s, L: int32(l), K: 1, I: float64(step*10 + i), Err: int32(data[2] % 8)})
					s += l
					data = data[3:]
				}
				for _, seg := range batch {
					ref.insertAt(0, seg)
				}
				lt.Insert(batch)
			}
			if d := diverges(lt, ref); d != "" {
				t.Fatalf("step %d: %s", step, d)
			}
		}
	})
}
