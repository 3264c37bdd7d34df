package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketLayoutContinuous(t *testing.T) {
	// Every bucket boundary must be continuous and monotone: bucket i's
	// upper bound + 1 is bucket i+1's lower bound, and both ends of a
	// bucket map back to it.
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketLower(i), bucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lower(%d)=%d) = %d", i, lo, got)
		}
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(upper(%d)=%d) = %d", i, hi, got)
		}
		if i+1 < histBuckets && bucketLower(i+1) != hi+1 {
			t.Fatalf("bucket %d upper %d not adjacent to bucket %d lower %d", i, hi, i+1, bucketLower(i+1))
		}
	}
	if got := bucketIndex(math.MaxUint64); got != histBuckets-1 {
		t.Fatalf("bucketIndex(MaxUint64) = %d, want %d", got, histBuckets-1)
	}
}

func TestBucketRelativeError(t *testing.T) {
	// The log-linear layout promises ~1/subCount relative width: no
	// bucket above the exact region may be wider than its lower bound
	// divided by subCount (i.e. ~3% relative error).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63())
		b := bucketIndex(v)
		lo, hi := bucketLower(b), bucketUpper(b)
		if v < subCount {
			if lo != v || hi != v {
				t.Fatalf("exact region value %d in bucket [%d,%d]", v, lo, hi)
			}
			continue
		}
		if width := hi - lo; width > lo/subCount {
			t.Fatalf("bucket %d [%d,%d] width %d exceeds %d (>%.1f%% relative error)",
				b, lo, hi, width, lo/subCount, 100.0/subCount)
		}
	}
}

func TestHistObserveAndQuantiles(t *testing.T) {
	var h Hist
	// 1..1000: quantiles of a known uniform stream.
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.N != 1000 || s.Sum != 500500 || s.Max != 1000 {
		t.Fatalf("snapshot n=%d sum=%d max=%d", s.N, s.Sum, s.Max)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0, 1, 0},
		{0.50, 500, 500 * 0.04},
		{0.90, 900, 900 * 0.04},
		{0.99, 990, 990 * 0.04},
		{1, 1000, 0},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestHistQuantileEdgeCases(t *testing.T) {
	var empty Hist
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
	var one Hist
	one.Observe(42)
	s := one.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("one-sample Quantile(%g) = %g, want 42", q, got)
		}
	}
	// A huge value lands in a wide top bucket; the observed max clamps
	// the interpolation so the estimate cannot exceed reality.
	var big Hist
	big.Observe(math.MaxUint64)
	if got := big.Snapshot().Quantile(1); got > float64(math.MaxUint64) {
		t.Errorf("max-value Quantile(1) = %g exceeds MaxUint64", got)
	}
	// Out-of-range q clamps.
	if got := s.Quantile(-1); got != 42 {
		t.Errorf("Quantile(-1) = %g, want 42", got)
	}
	if got := s.Quantile(2); got != 42 {
		t.Errorf("Quantile(2) = %g, want 42", got)
	}
}

// Quantile locates the target rank's bucket and interpolates inside it.
func TestHistogramQuantile(t *testing.T) {
	// Values below subCount each own an exact bucket, so a one-sample
	// bucket reports its value.
	var exact Hist
	for v := uint64(1); v <= 20; v++ {
		exact.Observe(v)
	}
	s := exact.Snapshot()
	if got := s.Quantile(0.5); got != 10 {
		t.Errorf("Quantile(0.5) = %g, want 10 (rank 10 of 20)", got)
	}
	if got := s.Quantile(0.75); got != 15 {
		t.Errorf("Quantile(0.75) = %g, want 15 (rank 15 of 20)", got)
	}

	// Four samples in the bucket [1024,1055] map ranks 1..4 onto the
	// bucket's full width; the top rank reports the tracked maximum.
	var wide Hist
	for i := 0; i < 4; i++ {
		wide.Observe(1030)
	}
	wide.Observe(5000)
	s = wide.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.1, 1024},            // rank 1: the bucket's lower bound
		{0.5, 1024 + 31*2.0/3}, // rank 3 of the bucket's 4
		{0.7, 1055},            // rank 4: the bucket's upper bound
		{0.99, 5000},           // rank 5 = N: the exact maximum
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}

	// When the maximum falls inside the located bucket, the bucket ends
	// there: no estimate exceeds an observed value.
	var clamp Hist
	clamp.Observe(1024)
	clamp.Observe(1030)
	clamp.Observe(1030)
	if got := clamp.Snapshot().Quantile(0.5); got < 1024 || got > 1030 {
		t.Errorf("clamped Quantile(0.5) = %g, want within [1024,1030]", got)
	}

	// Out-of-range q clamps instead of misbehaving.
	if got, want := s.Quantile(-0.5), s.Quantile(0); got != want {
		t.Errorf("Quantile(-0.5) = %g, want %g", got, want)
	}
	if got, want := s.Quantile(1.5), s.Quantile(1); got != want {
		t.Errorf("Quantile(1.5) = %g, want %g", got, want)
	}
}

func TestHistQuantileVsExact(t *testing.T) {
	// Against an exact sorted-sample quantile, the histogram estimate
	// must stay within the layout's ~3% relative error (plus one bucket
	// of slack at the tails).
	rng := rand.New(rand.NewSource(11))
	var h Hist
	vals := make([]float64, 20000)
	for i := range vals {
		// Log-normal-ish latencies: exercise several octaves.
		v := uint64(math.Exp(rng.NormFloat64()*1.5+8)) + 1
		vals[i] = float64(v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := s.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.07 {
			t.Errorf("Quantile(%g) = %g vs exact %g (%.1f%% off)", q, got, exact, rel*100)
		}
	}
}

// Observe must stay allocation-free: the serving hot path calls it per
// request from every client goroutine.
func TestHistObserveZeroAlloc(t *testing.T) {
	var h Hist
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(1234)
		h.Observe(1 << 40)
	}); n != 0 {
		t.Fatalf("Observe allocates %.2f times per run, want 0", n)
	}
}
