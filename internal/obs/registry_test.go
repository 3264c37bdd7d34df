package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry(1)
	c := r.Counter("writes")
	c.Inc(0)
	c.Add(0, 4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("writes") != c {
		t.Fatal("Counter not idempotent for the same name")
	}

	g := r.Gauge("epoch")
	g.Set(5)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want the last value 3", got)
	}
	if r.Gauge("epoch") != g {
		t.Fatal("Gauge not idempotent for the same name")
	}

	h := r.Hist("slots")
	if r.Hist("slots") != h {
		t.Fatal("Hist not idempotent for the same name")
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 100} {
		h.Stripe(0).Observe(v)
	}
	s := h.Snapshot()
	if s.N != 7 || s.Sum != 115 || s.Max != 100 {
		t.Fatalf("hist n=%d sum=%d max=%d, want 7, 115, 100", s.N, s.Sum, s.Max)
	}
	// Values below subCount land in exact unit buckets.
	for v := 0; v <= 5; v++ {
		if s.Counts[v] != 1 {
			t.Fatalf("bucket %d holds %d, want 1", v, s.Counts[v])
		}
	}
	if got := s.Counts[bucketIndex(100)]; got != 1 {
		t.Fatalf("bucket of 100 holds %d, want 1", got)
	}
}

// Striped handles merge at read time: adds on any stripe (stripe indices
// wrap modulo the stripe count) sum into one value, and per-stripe
// histograms merge into one snapshot.
func TestStripedCounterGaugeMerge(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("ops")
	for stripe := 0; stripe < 8; stripe++ { // wraps around the 4 stripes
		c.Add(stripe, uint64(stripe))
	}
	if got := c.Value(); got != 28 {
		t.Fatalf("counter merge = %d, want 28", got)
	}

	// The gauge is one last-value cell, not striped: whichever worker
	// set it last wins.
	g := r.Gauge("epoch")
	g.Set(5)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want the last value 3", got)
	}

	h := r.Hist("lat")
	h.Stripe(0).Observe(10)
	h.Stripe(1).Observe(30)
	h.Stripe(6).Observe(20) // wraps onto stripe 2
	if h.Stripe(6) != h.Stripe(2) {
		t.Fatal("Stripe(6) did not wrap onto stripe 2 of 4")
	}
	s := h.Snapshot()
	if s.N != 3 || s.Sum != 60 || s.Max != 30 {
		t.Fatalf("hist merge n=%d sum=%d max=%d", s.N, s.Sum, s.Max)
	}
}

func TestRegistryStripeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		if got := NewRegistry(tc.in).stripes; got != tc.want {
			t.Errorf("NewRegistry(%d) has %d stripes, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("reads").Add(0, 7)
	r.Gauge("inflight").Set(2)
	r.Hist("lat").Stripe(1).Observe(100)
	s := r.Snapshot()
	if s.Counters["reads"] != 7 || s.Gauges["inflight"] != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	q := s.Lat["lat"]
	if q.N != 1 || q.MaxNs != 100 || q.P50Ns != 100 || q.MeanNs != 100 {
		t.Fatalf("snapshot quantiles = %+v", q)
	}
	if _, ok := s.Lat["nope"]; ok {
		t.Fatal("snapshot invented a histogram")
	}
	// A snapshot is detached: later records do not show up in it.
	r.Counter("reads").Add(1, 1)
	if s.Counters["reads"] != 7 {
		t.Fatalf("snapshot counter moved to %d after a later add", s.Counters["reads"])
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("b").Add(0, 2)
	r.Counter("a").Add(1, 1)
	r.Gauge("g").Set(0.5)
	r.Hist("lat").Stripe(0).Observe(100)
	s := r.Snapshot().String()
	ai, bi := strings.Index(s, "a 1"), strings.Index(s, "b 2")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("snapshot rendering unsorted or missing entries:\n%s", s)
	}
	for _, want := range []string{"g 0.5", "lat n=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExpvarPublish(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("writes").Add(0, 3)
	r.Expvar("test_registry")
	// Republishing with a new registry must rebind, not panic.
	r2 := NewRegistry(1)
	r2.Counter("writes").Add(0, 9)
	r2.Expvar("test_registry")
	var snap Snapshot
	if err := json.Unmarshal([]byte(expvar.Get("test_registry").String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["writes"] != 9 {
		t.Fatalf("rebound expvar writes = %d, want 9", snap.Counters["writes"])
	}
}

// The expvar rendering must expose live histogram quantiles: ServeDebug's
// /debug/vars is how a running serving harness is inspected.
func TestExpvarIncludesQuantiles(t *testing.T) {
	r := NewRegistry(2)
	h := r.Hist("req_lat")
	for v := uint64(1); v <= 100; v++ {
		h.Stripe(int(v)).Observe(v)
	}
	h.Stripe(0).Observe(350)
	r.Expvar("test_registry_quantiles")
	v := expvar.Get("test_registry_quantiles")
	if v == nil {
		t.Fatal("registry not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar output is not Snapshot JSON: %v\n%s", err, v.String())
	}
	q, ok := snap.Lat["req_lat"]
	if !ok {
		t.Fatalf("expvar output lacks the histogram:\n%s", v.String())
	}
	if q.N != 101 || q.MaxNs != 350 {
		t.Errorf("expvar n=%d max=%d, want 101, 350", q.N, q.MaxNs)
	}
	// rank 51 of 101 is the value 51; rank 100 is the value 100.
	for _, tc := range []struct {
		name      string
		got, want float64
	}{{"p50", q.P50Ns, 51}, {"p99", q.P99Ns, 100}} {
		if math.Abs(tc.got-tc.want) > tc.want*0.04 {
			t.Errorf("expvar %s = %g, want %g ± 4%%", tc.name, tc.got, tc.want)
		}
	}
}

// The acceptance bar: 64 goroutines recording through one registry's
// counters, gauges and histograms (run under -race in make race-timing)
// must be race-free and lose nothing — every add and observation shows
// up in the merged snapshot.
func TestRegistryConcurrentHammer(t *testing.T) {
	const goroutines = 64
	const perG = 2000
	r := NewRegistry(goroutines)
	c := r.Counter("ops")
	g := r.Gauge("last")
	h := r.Hist("lat")
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			// Half the goroutines register concurrently too: handle
			// creation must be safe alongside updates and snapshots.
			if stripe%2 == 0 {
				r.Counter("ops").Add(stripe, 0)
				r.Hist("lat").Stripe(stripe)
			}
			hist := h.Stripe(stripe)
			for i := 0; i < perG; i++ {
				c.Inc(stripe)
				g.Set(float64(stripe))
				hist.Observe(uint64(stripe*perG + i))
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		_ = r.Snapshot() // concurrent snapshots must be safe
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["ops"]; got != goroutines*perG {
		t.Fatalf("counter lost updates: %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauges["last"]; got < 0 || got >= goroutines || got != float64(int(got)) {
		t.Fatalf("gauge holds %v, not one goroutine's last value", got)
	}
	q := s.Lat["lat"]
	if q.N != goroutines*perG {
		t.Fatalf("hist lost observations: %d, want %d", q.N, goroutines*perG)
	}
	if q.MaxNs != goroutines*perG-1 {
		t.Fatalf("hist max = %d, want %d", q.MaxNs, goroutines*perG-1)
	}
	var total uint64
	for _, n := range h.Snapshot().Counts {
		total += n
	}
	if total != goroutines*perG {
		t.Fatalf("bucket counts sum to %d, want %d", total, goroutines*perG)
	}
}

// Snapshots read while 64 goroutines record — directly and through a
// Streamer ticking every millisecond — must be monotone in every count,
// and the Streamer's final line must carry the exact totals.
func TestMetricsConcurrentHammer(t *testing.T) {
	const goroutines = 64
	const perG = 2000
	r := NewRegistry(goroutines)
	c := r.Counter("ops")
	h := r.Hist("lat")
	var buf bytes.Buffer
	st := NewStreamer(r, &buf, time.Millisecond)
	st.Start()
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			hist := h.Stripe(stripe)
			for i := 0; i < perG; i++ {
				c.Inc(stripe)
				hist.Observe(uint64(i))
			}
		}(w)
	}
	var prevOps, prevN uint64
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		ops, n := s.Counters["ops"], s.Lat["lat"].N
		if ops < prevOps || n < prevN {
			t.Fatalf("snapshot went backwards: ops %d -> %d, n %d -> %d", prevOps, ops, prevN, n)
		}
		prevOps, prevN = ops, n
	}
	wg.Wait()
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	prevOps, prevN = 0, 0
	for i, line := range lines {
		var rec Snapshot
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		ops, n := rec.Counters["ops"], rec.Lat["lat"].N
		if ops < prevOps || n < prevN {
			t.Fatalf("line %d went backwards: ops %d -> %d, n %d -> %d", i, prevOps, ops, prevN, n)
		}
		prevOps, prevN = ops, n
	}
	if prevOps != goroutines*perG || prevN != goroutines*perG {
		t.Fatalf("final streamed line ops=%d n=%d, want %d each", prevOps, prevN, goroutines*perG)
	}
}

// The record path must stay allocation-free: schemes record per write
// through a one-stripe registry's resolved handles.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry(1)
	c := r.Counter("flips")
	g := r.Gauge("epoch")
	h := r.Hist("slots").Stripe(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(0, 3)
		g.Set(1)
		h.Observe(2)
	}); n != 0 {
		t.Fatalf("metric updates allocate %.2f times per run, want 0", n)
	}
}

// The striped record path must stay allocation-free too, including
// resolving a stripe's histogram per call as serving clients do.
func TestStripedRecordZeroAlloc(t *testing.T) {
	r := NewRegistry(8)
	c := r.Counter("ops")
	h := r.Hist("lat")
	stripe := 0
	if n := testing.AllocsPerRun(1000, func() {
		stripe = (stripe + 1) % 8
		c.Inc(stripe)
		h.Stripe(stripe).Observe(512)
	}); n != 0 {
		t.Fatalf("striped record path allocates %.2f times per run, want 0", n)
	}
}
