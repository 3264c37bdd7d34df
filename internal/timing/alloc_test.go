package timing

import (
	"container/heap"
	"math/rand"
	"testing"

	"deuce/internal/trace"
)

// runAllocs returns the allocations of building a Simulator over a
// pre-generated trace of n events and running it to the end: four cores
// interleaving reads and writebacks over eight banks, with write pausing,
// so every event kind and queue is exercised.
func runAllocs(t *testing.T, n int) float64 {
	t.Helper()
	data := make([]byte, 64)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.Writeback, Line: uint64(i * 7 % 97), CPU: uint8(i % 4), Gap: uint32(i % 150), Data: data}
		if i%3 == 0 {
			evs[i].Kind, evs[i].Data = trace.Read, nil
		}
	}
	cfg := Config{Cores: 4, Banks: 8, WritePausing: true}
	return testing.AllocsPerRun(3, func() {
		s, err := NewSimulator(cfg, &sliceSource{events: evs}, fixedSlots(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(n); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocsConstant pins the event loop to O(1) allocations per Run:
// the typed event heap, by-value pending events and reused queues
// allocate only while they grow to the run's peak occupancy, which does
// not scale with the trace length.
func TestRunAllocsConstant(t *testing.T) {
	short, long := runAllocs(t, 2_000), runAllocs(t, 40_000)
	if long > short+8 {
		t.Errorf("Run allocates %.0f times over 2000 events but %.0f over 40000: allocations grow with the trace", short, long)
	}
	if long > 100 {
		t.Errorf("Run allocates %.0f times over 40000 events, want a small constant", long)
	}
}

// refHeap is eventHeap behind container/heap's interface, the order the
// typed heap must reproduce.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap: the typed heap pops events in exactly
// container/heap's order, ties included. Times come from a handful of
// values so most comparisons tie, and each event carries a unique id so
// any reordering among equal times shows.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got eventHeap
	var want refHeap
	id := 0
	for step := 0; step < 200_000; step++ {
		if len(got) == 0 || rng.Intn(5) < 3 {
			e := event{at: float64(rng.Intn(8)), core: id}
			id++
			got.push(e)
			heap.Push(&want, e)
			continue
		}
		g, w := got.pop(), heap.Pop(&want).(event)
		if g != w {
			t.Fatalf("step %d: typed heap popped %+v, container/heap %+v", step, g, w)
		}
	}
}
