package obs

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The merge-on-snapshot contract, property-tested: for random streams
// split across K striped histograms, the merged snapshot must equal —
// exact bucket equality, not approximately — the snapshot of one
// histogram that observed the concatenated stream. Runs under -race in
// make race-timing with the observations actually concurrent.
func TestMergePropertyStripesEqualConcatenated(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(5000)
		// Draw the stream up front so the striped and sequential runs
		// observe identical values.
		vals := make([]uint64, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0: // exact region
				vals[i] = uint64(rng.Intn(subCount))
			case 1: // mid octaves
				vals[i] = uint64(rng.Int63n(1 << 30))
			default: // high octaves
				vals[i] = rng.Uint64()
			}
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}

		sh := NewRegistry(k).Hist("lat")
		var wg sync.WaitGroup
		for stripe := 0; stripe < k; stripe++ {
			wg.Add(1)
			go func(stripe int) {
				defer wg.Done()
				h := sh.Stripe(stripe)
				for i, v := range vals {
					if assign[i] == stripe {
						h.Observe(v)
					}
				}
			}(stripe)
		}
		wg.Wait()

		var whole Hist
		for _, v := range vals {
			whole.Observe(v)
		}

		got, want := sh.Snapshot(), whole.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d n=%d): merged striped snapshot differs from concatenated stream\nmerged: n=%d sum=%d max=%d\nwhole:  n=%d sum=%d max=%d",
				trial, k, n, got.N, got.Sum, got.Max, want.N, want.Sum, want.Max)
		}
	}
}

// Merge must also be associative and commutative over snapshots — the
// order stripes are folded in cannot matter.
func TestMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	snaps := make([]HistSnapshot, 4)
	for i := range snaps {
		var h Hist
		for j := 0; j < 200; j++ {
			h.Observe(uint64(rng.Int63n(1 << 20)))
		}
		snaps[i] = h.Snapshot()
	}
	fold := func(order []int) HistSnapshot {
		out := snaps[order[0]]
		for _, i := range order[1:] {
			out = out.Merge(snaps[i])
		}
		return out
	}
	a := fold([]int{0, 1, 2, 3})
	b := fold([]int{3, 1, 0, 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merge result depends on fold order")
	}
}
