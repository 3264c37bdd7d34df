// Package stats provides the small statistical toolkit the experiment
// harness uses: arithmetic and geometric means (the latter the
// conventional aggregate for speedup figures) and nearest-rank
// percentiles over a slice. Histograms, and every streaming or
// concurrent accumulator, live in internal/obs.
//
// Concurrency: the functions are pure; they read their argument and
// hold no state.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs; it panics on non-positive
// inputs, which are always a bug for ratio metrics like speedup.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using
// nearest-rank on a sorted copy. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
