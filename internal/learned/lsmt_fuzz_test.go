package learned

import "testing"

const maxFuzzOps = 120

// FuzzLSMT decodes its input into a sequence of table operations and holds
// the table to refLSMT after each one: every lookup, what a snapshot
// carries, the segment count and every compaction's dropped count. An
// operation is one byte, op, followed by what it reads:
//
//   - op%4 == 0: CompactShadowed.
//   - op%4 == 1: ExportLevels into a fresh table's ImportLevels, which the
//     operations that follow use.
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
		nseg := 0
		for step := 0; step < maxFuzzOps && len(data) > 0; step++ {
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 0:
				dropped := ref.compactShadowed()
				if got := lt.CompactShadowed(); got != dropped {
					t.Fatalf("step %d: compaction dropped %d segments, the reference %d", step, got, dropped)
				}
				nseg -= dropped
			case 1:
				fresh := NewLSMT()
				if err := fresh.ImportLevels(lt.ExportLevels()); err != nil {
					t.Fatalf("step %d: the table's own levels do not import: %v", step, err)
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
				nseg += len(batch)
			}
			if lt.NumSegments() != nseg {
				t.Fatalf("step %d: %d segments, want %d", step, lt.NumSegments(), nseg)
			}
			got := lt.ExportLevels()
			if len(got) != len(ref.levels) {
				t.Fatalf("step %d: %d levels, the reference %d", step, len(got), len(ref.levels))
			}
			for li := range got {
				if len(got[li]) != len(ref.levels[li]) {
					t.Fatalf("step %d: level %d holds %d segments, the reference %d", step, li, len(got[li]), len(ref.levels[li]))
				}
				for si := range got[li] {
					if got[li][si] != ref.levels[li][si] {
						t.Fatalf("step %d: level %d segment %d is %+v, the reference %+v", step, li, si, got[li][si], ref.levels[li][si])
					}
				}
			}
			for lpn := int64(-1); lpn <= lsmtKeys; lpn++ {
				gs, gok := lt.Lookup(lpn)
				ws, wok := ref.lookup(lpn)
				if gs != ws || gok != wok {
					t.Fatalf("step %d: Lookup(%d) = %+v, %v; the reference %+v, %v", step, lpn, gs, gok, ws, wok)
				}
			}
		}
	})
}
