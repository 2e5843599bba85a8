package stats

import (
	"math"
	"math/bits"
	"slices"
)

// dist is one population of request latencies in bounded memory: the count
// and the sum, top, an exact buffer of the largest values, and a histogram
// of the others with histSub log-linear sub-buckets per octave. Once top
// fills topCap, a cut keeps its topK largest and sets floor to the least of
// them; from then on top holds every value above floor, some equal to it,
// and at least topK in all. So every rank from the top up to len(top) reads
// what a sort of the population reads, and a lower rank reads its bucket's
// lower bound, within 1/histSub (1.6 %). reset keeps the memory: recording
// allocates nothing in steady state and stops growing at topCap values.
type dist struct {
	n, sum int64
	top    []int64
	hist   []int64 // nil until the first cut
	floor  int64   // math.MinInt64 after a reset, until the next cut
}

const (
	topK   = 1 << 15 // the exact ranks: P99 up to 3.2 M samples, P99.9 up to 32 M
	topCap = 2 * topK

	histSub     = 64 // sub-buckets per octave; values below 2·histSub have one each
	histBuckets = (64 - 6) * histSub
)

// bucketOf returns v's histogram bucket: v itself below 2·histSub, else
// octave e's sub-bucket v>>e, whose top bit is histSub. Negative values
// share bucket 0.
func bucketOf(v int64) int {
	u := uint64(max(v, 0))
	e := max(bits.Len64(u), 7) - 7
	return e*histSub + int(u>>e)
}

// bucketLow returns the smallest value of bucket b.
func bucketLow(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	return int64(histSub+b%histSub) << (b/histSub - 1)
}

// add records one value.
func (d *dist) add(v int64) {
	d.n++
	d.sum += v
	if d.hist == nil || v > d.floor {
		d.keep(v)
	} else {
		d.hist[bucketOf(v)]++
	}
}

// keep puts v in top and makes room for the next value: a buffer four
// times larger while top is under topCap, else a cut.
func (d *dist) keep(v int64) {
	d.top = append(d.top, v)
	if len(d.top) < cap(d.top) {
		return
	}
	if c := cap(d.top); c < topCap {
		d.top = append(make([]int64, 0, min(4*c, topCap)), d.top...)
		return
	}
	cut := len(d.top) - topK
	nth(d.top, cut)
	d.count(d.top[:cut])
	d.floor = d.top[cut]
	d.top = append(d.top[:0], d.top[cut:]...)
}

// count adds vs to the histogram, which it makes on first use.
func (d *dist) count(vs []int64) {
	if d.hist == nil {
		d.hist = make([]int64, histBuckets)
	}
	for _, v := range vs {
		d.hist[bucketOf(v)]++
	}
}

// merge adds o's samples to d, as if each had been recorded into d.
func (d *dist) merge(o *dist) {
	d.n += o.n
	d.sum += o.sum
	if o.hist != nil {
		if d.hist == nil || o.floor > d.floor {
			// o kept none of its values below o.floor, so d keeps none.
			i := 0
			for j, v := range d.top {
				if v >= o.floor {
					d.top[i], d.top[j] = v, d.top[i]
					i++
				}
			}
			d.count(d.top[i:])
			d.top, d.floor = d.top[:i], o.floor
		}
		for b, c := range o.hist {
			d.hist[b] += c
		}
	}
	for _, v := range o.top {
		if d.hist == nil || v >= d.floor {
			d.keep(v)
		} else {
			d.hist[bucketOf(v)]++
		}
	}
}

// reset empties the population and keeps its memory.
func (d *dist) reset() {
	d.n, d.sum, d.floor = 0, 0, math.MinInt64
	d.top = d.top[:0]
	clear(d.hist)
}

// percentile returns the p-th percentile (0 < p <= 100): the value at
// index int(p/100·n)−1 of the ascending population, clamped to its ends,
// or 0 if it is empty. It reorders top.
func (d *dist) percentile(p float64) int64 {
	if d.n == 0 {
		return 0
	}
	idx := min(max(int64(p/100*float64(d.n))-1, 0), d.n-1)
	if m := idx - (d.n - int64(len(d.top))); m >= 0 {
		nth(d.top, int(m))
		return d.top[m]
	}
	b := 0 // the histogram counts the n−len(top) smallest values
	for cum := d.hist[0]; cum <= idx; cum += d.hist[b] {
		b++
	}
	return bucketLow(b)
}

// nth reorders s so that s[m] holds the value a sort would put there, with
// nothing greater before it and nothing smaller after it: a quickselect
// whose Hoare partition splits a run of equal values evenly. An order that
// defeats its median-of-three pivot falls back to a sort, so it stays
// O(n log n).
func nth(s []int64, m int) {
	lo, hi := 0, len(s)-1
	for rounds := 0; lo < hi; rounds++ {
		if rounds > 2*bits.Len(uint(len(s))) {
			slices.Sort(s[lo : hi+1])
			return
		}
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi]
		p := max(min(a, b), min(max(a, b), c)) // median of three
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case m <= j:
			hi = j
		case m >= i:
			lo = i
		default:
			return
		}
	}
}
