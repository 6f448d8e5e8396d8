package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1]).
func percentile[T int64 | float64 | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value (the mean of the two middle ones for an
// even count).
func median[T int64 | float64 | time.Duration](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
