package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"expvar"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The JSONL stream schema is a contract: internal/regress and external
// scripts parse it, so its shape is pinned by a golden file. Run with
// -update after a deliberate schema change.
func TestStreamGoldenSchema(t *testing.T) {
	r := NewRegistry(2)
	ops := r.Counter("ops")
	reads := r.Counter("reads")
	inflight := r.Gauge("inflight")
	lat := r.Hist("lat_op")

	var buf bytes.Buffer
	s := NewStreamer(r, &buf, time.Second)
	var fakeNs int64
	s.nowNs = func() int64 { return fakeNs }

	ops.Add(0, 10)
	reads.Add(1, 4)
	inflight.Set(2)
	for v := uint64(100); v <= 1000; v += 100 {
		lat.Stripe(0).Observe(v)
	}
	fakeNs = 1_000_000_000
	s.Emit()

	ops.Add(1, 5)
	inflight.Set(1)
	lat.Stripe(1).Observe(2000)
	fakeNs = 2_000_000_000
	s.Emit()

	got := buf.String()
	golden := filepath.Join("testdata", "stream.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("stream schema drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Every line must also be valid standalone JSON with the cumulative
	// invariant: counts never decrease across records.
	var prevOps float64 = -1
	sc := bufio.NewScanner(strings.NewReader(got))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line is not JSON: %v\n%s", err, sc.Text())
		}
		cur := rec["counters"].(map[string]any)["ops"].(float64)
		if cur < prevOps {
			t.Fatalf("cumulative counter went backwards: %g -> %g", prevOps, cur)
		}
		prevOps = cur
	}
}

func TestStreamerStartStop(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("ops").Add(0, 3)
	var buf bytes.Buffer
	s := NewStreamer(r, &buf, time.Millisecond)
	s.Start()
	time.Sleep(10 * time.Millisecond)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines < 1 {
		t.Fatalf("streamer emitted %d lines, want at least the final snapshot", lines)
	}
	// The final line carries the run's totals.
	last := buf.String()
	last = strings.TrimSpace(last)
	if i := strings.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var rec Snapshot
	if err := json.Unmarshal([]byte(last), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Counters["ops"] != 3 {
		t.Fatalf("final snapshot ops = %d, want 3", rec.Counters["ops"])
	}
}

// Registry.Expvar is the one /debug/vars adapter: a published registry
// renders its counters and its histograms' quantiles as Snapshot JSON.
func TestMetricsExpvar(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("ops").Add(0, 9)
	r.Hist("lat_op").Stripe(0).Observe(500)
	r.Expvar("test_serve_metrics")
	v := expvar.Get("test_serve_metrics")
	if v == nil {
		t.Fatal("metrics not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar output is not Snapshot JSON: %v\n%s", err, v.String())
	}
	if snap.Counters["ops"] != 9 {
		t.Fatalf("expvar ops = %d, want 9", snap.Counters["ops"])
	}
	q, ok := snap.Lat["lat_op"]
	if !ok || q.P50Ns != 500 || q.P99Ns != 500 {
		t.Fatalf("expvar quantiles = %+v (ok=%v), want p50=p99=500", q, ok)
	}
}
