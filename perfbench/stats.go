package main

import (
	"math"
	"sort"
)

// samples holds one latency distribution in milliseconds.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of s, which
// must be sorted, and how many samples lie above the rank it picked.
func (s samples) quantile(q float64) (v float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median returns the middle of s, which must be sorted: the mean of the
// two middle samples when their number is even.
func (s samples) median() float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns a sorted copy of s.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// ratio is a per-unit figure kept with its base, so the report can say
// what it was divided by.
type ratio struct{ num, base float64 }

// value returns num/base, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

// hist is a sum of registry histograms: bucket i covers (2^(i-1), 2^i]
// in the instrument's native unit (bucket 0 covers [0, 1]), and the last
// bucket is the overflow bucket, mirroring the registry's layout.
type hist struct {
	count, sum uint64
	counts     []uint64
}

func (h *hist) add(o *hist, sign int) {
	if len(h.counts) < len(o.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	if sign > 0 {
		h.count += o.count
		h.sum += o.sum
		for i, c := range o.counts {
			h.counts[i] += c
		}
		return
	}
	h.count -= o.count
	h.sum -= o.sum
	for i, c := range o.counts {
		h.counts[i] -= c
	}
}

func (h *hist) mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// quantile interpolates linearly inside the covering bucket, as the
// registry does; the overflow bucket reports its lower bound.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := 0.0, 1.0
		if i > 0 {
			lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
		}
		if cum+float64(c) >= rank {
			if i == len(h.counts)-1 {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(h.counts)-2)
}
