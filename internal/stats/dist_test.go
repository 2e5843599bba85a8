package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"learnedftl/internal/nand"
)

// TestBuckets: the buckets are monotone, contiguous and cover int64, and a
// bucket's lower bound is within 1/histSub of every value in it.
func TestBuckets(t *testing.T) {
	for b := 0; b < histBuckets; b++ {
		lo := bucketLow(b)
		if bucketOf(lo) != b || (b > 0 && bucketOf(lo-1) != b-1) {
			t.Fatalf("bucket %d: lower bound %d maps to %d, the value below it to %d", b, lo, bucketOf(lo), bucketOf(lo-1))
		}
	}
	if bucketOf(math.MaxInt64) != histBuckets-1 || bucketOf(-5) != 0 {
		t.Fatalf("MaxInt64 in bucket %d, -5 in bucket %d", bucketOf(math.MaxInt64), bucketOf(-5))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		v := rng.Int63n(1 << uint(1+rng.Intn(62)))
		if lo := bucketLow(bucketOf(v)); lo > v || v > 0 && (v-lo)*histSub >= v {
			t.Fatalf("value %d: bucket lower bound %d", v, lo)
		}
	}
}

// TestCollectorRecordZeroAlloc: once warmed past a cut and Reset (exactly
// the warm-up → measure cycle every experiment runs), recording latencies
// allocates nothing per request.
func TestCollectorRecordZeroAlloc(t *testing.T) {
	c := NewCollector()
	const n = 2 * topCap
	for i := 0; i < n; i++ {
		c.RecordRead(nand.Time(i), 1)
		c.RecordWrite(nand.Time(i), 1)
	}
	c.Reset()
	i := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		c.RecordRead(nand.Time(100+i), 1)
		c.RecordWrite(nand.Time(200+i), 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state record allocated %.1f times per request", allocs)
	}
}

// refDist is the sorted population a dist stands for.
type refDist []int64

// checkDist holds d to its reference: the count and the sum; the topK
// largest values in top; and a spread of percentiles, exact while their
// rank from the top is at most topK and within their histogram bucket
// beyond.
func checkDist(t *testing.T, d *dist, ref refDist, at string) {
	t.Helper()
	slices.Sort(ref) // in place: the order of a population is no part of it
	n := int64(len(ref))
	var sum int64
	for _, v := range ref {
		sum += v
	}
	if d.n != n || d.sum != sum {
		t.Fatalf("%s: n %d sum %d, want %d and %d", at, d.n, d.sum, n, sum)
	}
	if n == 0 {
		if got := d.percentile(50); got != 0 {
			t.Fatalf("%s: empty P50 = %d", at, got)
		}
		return
	}
	m := min(n, topK)
	if int64(len(d.top)) < m {
		t.Fatalf("%s: top holds %d values, want at least %d", at, len(d.top), m)
	}
	top := slices.Clone(d.top)
	slices.Sort(top)
	if !slices.Equal(top[int64(len(top))-m:], ref[n-m:]) {
		t.Fatalf("%s: the %d largest values differ from the population's", at, m)
	}
	for _, p := range []float64{0.01, 1, 25, 50, 90, 99, 99.9, 99.99, 100} {
		idx := min(max(int64(p/100*float64(n))-1, 0), n-1)
		got, want := d.percentile(p), ref[idx]
		if got != want && (n-idx <= topK || got != bucketLow(bucketOf(want))) {
			t.Fatalf("%s: P%v (rank %d of %d) = %d, want %d", at, p, n-idx, n, got, want)
		}
	}
}

// maxDistOps bounds one input's operations: a burst records up to 2·topCap
// values, and the reference sorts its population after every operation.
const maxDistOps = 8

// FuzzDist decodes its input into a sequence of operations on two
// distributions, d and o, and holds each to a sorted reference after every
// one (checkDist). An operation is one byte, op:
//
//   - op%4 == 0 or 1: record a burst into d or o. Three bytes follow: the
//     count (1 + 2·a big-endian uint16, so one burst can pass topCap) and
//     a parameter x. op>>2%4 picks the shape: uniform over [0, x] (ties),
//     log-uniform below 2^(1+x%62), increasing from x<<16 (a cut every
//     topK values), or the constant x<<10 (ties at the floor).
//   - op%4 == 2: merge o into d; o keeps its samples.
//   - op%4 == 3: reset d (op>>2 even) or o (odd).
func FuzzDist(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var d, o dist
		var refD, refO refDist
		for step := 0; step < maxDistOps && len(data) > 0; step++ {
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 0, 1:
				if len(data) < 3 {
					return
				}
				count, x := 1+2*(int(data[0])<<8|int(data[1])), int64(data[2])
				data = data[3:]
				dst, ref := &d, &refD
				if op%4 == 1 {
					dst, ref = &o, &refO
				}
				rng := rand.New(rand.NewSource(int64(step)<<8 | x))
				for i := 0; i < count; i++ {
					var v int64
					switch op >> 2 % 4 {
					case 0:
						v = rng.Int63n(x + 1)
					case 1:
						v = rng.Int63n(1 << uint(1+rng.Intn(1+int(x)%62)))
					case 2:
						v = x<<16 + int64(i)
					default:
						v = x << 10
					}
					dst.add(v)
					*ref = append(*ref, v)
				}
			case 2:
				d.merge(&o)
				refD = append(refD, refO...)
			default:
				if op>>2%2 == 0 {
					d.reset()
					refD = refD[:0]
				} else {
					o.reset()
					refO = refO[:0]
				}
			}
			checkDist(t, &d, refD, "d")
			checkDist(t, &o, refO, "o")
		}
	})
}

// TestNthMatchesSort holds nth to a sort on orders that stress its pivot:
// ties, one value, sorted and reversed runs, the int64 extremes and random
// values, at lengths on both sides of its sorting cutoff, for the ranks at
// the ends, the middle and a cut's.
func TestNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	shapes := map[string]func(i, n int) int64{
		"few values": func(i, n int) int64 { return 40_000 * rng.Int63n(16) },
		"one value":  func(i, n int) int64 { return 7 },
		"ascending":  func(i, n int) int64 { return int64(i) },
		"descending": func(i, n int) int64 { return int64(n - i) },
		"extremes": func(i, n int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MaxInt64 - 1}[rng.Intn(5)]
		},
		"random": func(i, n int) int64 { return rng.Int63() - rng.Int63() },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 255, 256, 257, 1000, topCap} {
			s := make([]int64, n)
			for i := range s {
				s[i] = shape(i, n)
			}
			ref := slices.Clone(s)
			slices.Sort(ref)
			for _, m := range []int{0, n / 2, max(n-topK, 0), n - 1} {
				got := slices.Clone(s)
				nth(got, m)
				if got[m] != ref[m] || slices.Max(got[:m+1]) != got[m] || slices.Min(got[m:]) != got[m] {
					t.Fatalf("%s, %d values, rank %d: s[m] = %d, a sort puts %d there, or a value is on the wrong side", name, n, m, got[m], ref[m])
				}
			}
		}
	}
}

// BenchmarkNth times one cut, the selection of rank topCap−topK among
// topCap latencies: a few values repeated many times, as a closed loop's
// reads record them, and values spread over sixteen octaves. Each operation
// also copies the values in, ≈ 30 µs of it.
func BenchmarkNth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		v    func() int64
	}{
		{"repeating", func() int64 { return 40_000 * (1 + rng.Int63n(16)) }},
		{"spread", func() int64 { return 40_000 + rng.Int63n(1<<uint(10+rng.Intn(16))) }},
	} {
		vs := make([]int64, topCap)
		for i := range vs {
			vs[i] = c.v()
		}
		s := make([]int64, topCap)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(s, vs)
				nth(s, topCap-topK)
			}
		})
	}
}
