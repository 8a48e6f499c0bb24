package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest candidate percentile that leaves at
// least ten samples beyond it (0 when even p75 does not).
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 99.9 not being exact in binary
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of an ascending
// sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median — the run-to-run spread the driver bounds. The
// quartiles follow Python's statistics.quantiles(values, n=4) (exclusive
// method), which is what the driver computes.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// latencies is a sample of statement latencies.
type latencies []time.Duration

// msSorted returns the sample in milliseconds, ascending.
func (l latencies) msSorted() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
