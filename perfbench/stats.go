package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of values
// sorted ascending, or 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest percentile, capped at the 99th, that still has
// ten samples beyond it in a sample of n.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median of vals (mean of the two middle values for an even count).
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles gives the cut points Python's statistics.quantiles(vals, n=4)
// returns (the default "exclusive" method), so a spread computed here reads
// the same as the one the driver computes over its runs.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(vals []float64) float64 {
	q1, _, q3 := quartiles(vals)
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
