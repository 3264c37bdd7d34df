package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); !almost(g, 2) {
		t.Errorf("GeoMean(1,4) = %v, want 2", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean of non-positive did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 50); p != 3 {
		t.Errorf("P50 = %v, want 3", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Errorf("P100 = %v, want 5", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty Percentile did not panic")
		}
	}()
	Percentile(nil, 50)
}

// Property: percentiles are monotone in p, bounded by min and max, and P50
// of the concatenation of a slice with itself equals P50 of the slice.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1, p2 := float64(pa%101), float64(pb%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi &&
			Percentile(xs, 0) <= lo && hi <= Percentile(xs, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every percentile of a slice is a member of the slice
// (nearest-rank, not interpolated).
func TestPercentileIsMember(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		member := map[float64]bool{}
		for i := range xs {
			xs[i] = float64(rng.Intn(50))
			member[xs[i]] = true
		}
		p := float64(rng.Intn(101))
		if v := Percentile(xs, p); !member[v] {
			t.Fatalf("P%v of %v = %v is not a member", p, xs, v)
		}
	}
}
