package regress

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAppendLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ledger.jsonl")
	r1 := Run{ID: "a", Source: "test", Metrics: map[string]float64{"x": 1, "y": 2.5}}
	r2 := Run{ID: "b", Metrics: map[string]float64{"x": 3}}
	if err := Append(path, r1); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, r2); err != nil {
		t.Fatal(err)
	}
	runs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("loaded %d runs, want 2", len(runs))
	}
	if runs[0].ID != "a" || runs[0].Metrics["y"] != 2.5 || runs[1].Metrics["x"] != 3 {
		t.Errorf("roundtrip mangled runs: %+v", runs)
	}
	if runs[0].Time.IsZero() {
		t.Error("Append did not stamp a time")
	}
	if err := Append(path, Run{Metrics: map[string]float64{"x": 1}}); err == nil {
		t.Error("Append accepted an empty run ID")
	}
}

func TestLoadMissingAndMalformed(t *testing.T) {
	runs, err := Load(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || runs != nil {
		t.Errorf("missing ledger should be empty, got %v, %v", runs, err)
	}
	_, err = Read(strings.NewReader("{\"id\":\"ok\",\"metrics\":{}}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line should fail with its line number, got %v", err)
	}
}

func TestFind(t *testing.T) {
	runs := []Run{
		{ID: "a", Metrics: map[string]float64{"v": 1}},
		{ID: "b", Metrics: map[string]float64{"v": 2}},
		{ID: "a", Metrics: map[string]float64{"v": 3}}, // re-recorded: latest wins
	}
	if r, err := Find(runs, "a"); err != nil || r.Metrics["v"] != 3 {
		t.Errorf("Find(a) = %v, %v; want latest entry v=3", r.Metrics, err)
	}
	if r, err := Find(runs, "HEAD"); err != nil || r.Metrics["v"] != 3 {
		t.Errorf("Find(HEAD) = %v, %v", r.Metrics, err)
	}
	if r, err := Find(runs, "HEAD~2"); err != nil || r.Metrics["v"] != 1 {
		t.Errorf("Find(HEAD~2) = %v, %v", r.Metrics, err)
	}
	if _, err := Find(runs, "HEAD~3"); err == nil {
		t.Error("Find(HEAD~3) beyond ledger should fail")
	}
	if _, err := Find(runs, "nope"); err == nil {
		t.Error("Find(nope) should fail")
	}
}

func TestBaselineMedian(t *testing.T) {
	runs := []Run{
		{ID: "1", Metrics: map[string]float64{"ns": 100, "rare": 7}},
		{ID: "2", Metrics: map[string]float64{"ns": 300}},
		{ID: "3", Metrics: map[string]float64{"ns": 110}},
		{ID: "4", Metrics: map[string]float64{"ns": 120}},
	}
	b, err := Baseline(runs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Even count: median of {100,110,120,300} = 115 — the 300 outlier must
	// not drag the baseline the way a mean would.
	if got := b.Metrics["ns"]; got != 115 {
		t.Errorf("median ns = %v, want 115", got)
	}
	if _, ok := b.Metrics["rare"]; ok {
		t.Error("metric with 1 sample survived minN=2")
	}
	if _, err := Baseline(nil, 1); err == nil {
		t.Error("Baseline over zero runs should fail")
	}
}

func TestCompareAndSignificance(t *testing.T) {
	old := Run{ID: "old", Metrics: map[string]float64{"ns": 100, "allocs": 0, "gone": 5, "same": 1}}
	new := Run{ID: "new", Metrics: map[string]float64{"ns": 103, "allocs": 3, "fresh": 1, "same": 1}}
	deltas := Compare(old, new)
	byName := make(map[string]Delta)
	for _, d := range deltas {
		byName[d.Metric] = d
	}
	if d := byName["ns"]; d.Pct < 2.9 || d.Pct > 3.1 {
		t.Errorf("ns pct = %v, want ~3", d.Pct)
	}
	if !byName["ns"].Significant(2.0) || byName["ns"].Significant(5.0) {
		t.Error("ns significance should follow the threshold")
	}
	// 0 → 3 allocs has no percent form but must always be significant.
	if !byName["allocs"].Significant(50.0) {
		t.Error("0 → nonzero must be significant at any threshold")
	}
	if byName["gone"].OnlyIn != "old" || byName["fresh"].OnlyIn != "new" {
		t.Errorf("OnlyIn not tracked: gone=%q fresh=%q", byName["gone"].OnlyIn, byName["fresh"].OnlyIn)
	}
	if !byName["gone"].Significant(99) || !byName["fresh"].Significant(99) {
		t.Error("appeared/vanished metrics must be significant")
	}
	if byName["same"].Significant(0.0001) {
		t.Error("identical values are never significant")
	}

	md := CompareMarkdown("old", "new", deltas, 2.0, true)
	for _, want := range []string{"| ns | 100 | 103 | +3.0% |", "0 → nonzero", "removed", "new", "omitted"} {
		if !strings.Contains(md, want) {
			t.Errorf("compare markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTrendMarkdownAndSparkline(t *testing.T) {
	runs := []Run{
		{ID: "1", Metrics: map[string]float64{"ns": 100, "once": 1}},
		{ID: "2", Metrics: map[string]float64{"ns": 150}},
		{ID: "3", Metrics: map[string]float64{"ns": 200}},
	}
	md := TrendMarkdown(runs, []string{"ns", "once", "absent"}, 16)
	if !strings.Contains(md, "| ns |") || !strings.Contains(md, "+100.0%") {
		t.Errorf("trend table missing the ns row:\n%s", md)
	}
	if strings.Contains(md, "once") {
		t.Errorf("single-sample metric should be skipped:\n%s", md)
	}
	// The sparkline must span the dynamic range: min maps low, max high.
	s := sparkline([]float64{1, 2, 3}, 8)
	if !strings.ContainsRune(s, '▁') || !strings.ContainsRune(s, '█') {
		t.Errorf("sparkline %q does not span min→max glyphs", s)
	}
	if sparkline(nil, 8) != "" {
		t.Error("empty series should render empty")
	}
}

func TestIngestSnapshotJSON(t *testing.T) {
	blob := `{
	  "counters": {"writebacks": 3000},
	  "gauges": {"flip_frac": 0.096},
	  "lat": {"write_slots": {"n": 3, "mean_ns": 1.3333333333333333, "p50_ns": 1, "p90_ns": 2, "p99_ns": 2, "p999_ns": 2, "max_ns": 2}}
	}`
	run := Run{ID: "t"}
	if err := IngestSnapshotJSON(&run, strings.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if run.Metrics["metrics:writebacks"] != 3000 || run.Metrics["metrics:flip_frac"] != 0.096 {
		t.Errorf("counters/gauges not ingested: %v", run.Metrics)
	}
	if got := run.Metrics["metrics:write_slots:mean"]; got < 1.33 || got > 1.34 {
		t.Errorf("hist mean = %v, want 4/3", got)
	}
	if run.Metrics["metrics:write_slots:n"] != 3 {
		t.Errorf("hist n = %v, want 3", run.Metrics["metrics:write_slots:n"])
	}
}

// A -metrics export from the older snapshot schema carries its histograms
// under "hists"; ingesting it must fail naming that field rather than
// record the counters and gauges and silently drop every histogram.
func TestIngestSnapshotJSONRejectsUnknownSchema(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "metrics_hists_schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := Run{ID: "t"}
	err = IngestSnapshotJSON(&run, f)
	if err == nil || !strings.Contains(err.Error(), `"hists"`) {
		t.Fatalf("IngestSnapshotJSON on a hists-schema export = %v, want an error naming \"hists\"", err)
	}
}

func TestIngestRunMetaJSON(t *testing.T) {
	blob := `{"tool": "deucesim", "build": {"git_sha": "abc123"}, "duration_ms": 88.5}`
	run := Run{ID: "t"}
	if err := IngestRunMetaJSON(&run, strings.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if run.Metrics["run:deucesim:duration_ms"] != 88.5 {
		t.Errorf("duration not ingested: %v", run.Metrics)
	}
	if run.Commit != "abc123" || run.Source != "deucesim" {
		t.Errorf("identity not adopted: commit=%q source=%q", run.Commit, run.Source)
	}
}

func TestIngestBenchJSON(t *testing.T) {
	blob := `{"benchmark": "BenchmarkWriteHot", "results": [
	  {"scheme": "deuce", "ns_per_op": 1122, "bytes_per_op": 0, "allocs_per_op": 0},
	  {"scheme": "invmm", "ns_per_op": 1496, "bytes_per_op": 277, "allocs_per_op": 5}
	]}`
	run := Run{ID: "t"}
	if err := IngestBenchJSON(&run, strings.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if run.Metrics["bench:WriteHot/deuce:ns_per_op"] != 1122 {
		t.Errorf("deuce ns_per_op not ingested: %v", run.Metrics)
	}
	if run.Metrics["bench:WriteHot/invmm:allocs_per_op"] != 5 {
		t.Errorf("invmm allocs_per_op not ingested: %v", run.Metrics)
	}
}

func TestIngestBenchText(t *testing.T) {
	out := `goos: linux
BenchmarkWriteHot/deuce-8         1000000    1122 ns/op    0 B/op    0 allocs/op
BenchmarkWriteHot/encr-dcw-8       500000     637.9 ns/op  0 B/op    0 allocs/op
BenchmarkFlipRate                  200000     95.0 ns/op   22.5 flips%
PASS
`
	run := Run{ID: "t"}
	if err := IngestBenchText(&run, strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	// The -8 GOMAXPROCS suffix must be stripped so names match across hosts.
	if run.Metrics["bench:WriteHot/deuce:ns_per_op"] != 1122 {
		t.Errorf("WriteHot/deuce not ingested (suffix handling?): %v", run.Metrics)
	}
	if run.Metrics["bench:WriteHot/encr-dcw:bytes_per_op"] != 0 {
		t.Errorf("encr-dcw bytes_per_op missing: %v", run.Metrics)
	}
	if run.Metrics["bench:FlipRate:flips_pct"] != 22.5 {
		t.Errorf("custom unit not normalized: %v", run.Metrics)
	}
	if err := IngestBenchText(&Run{ID: "x"}, strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("bench text with no benchmark lines should fail")
	}
}

func TestIngestValues(t *testing.T) {
	run := Run{ID: "t"}
	inf := 1.0
	IngestValues(&run, "fig10", map[string]float64{
		"flips/DEUCE": 0.228,
		"bad":         inf / 0, // +Inf must be skipped, not recorded
	})
	if run.Metrics["fidelity:fig10:flips/DEUCE"] != 0.228 {
		t.Errorf("values not namespaced: %v", run.Metrics)
	}
	if _, ok := run.Metrics["fidelity:fig10:bad"]; ok {
		t.Error("non-finite value leaked into the ledger")
	}
}

func TestHistoryAndMetricNames(t *testing.T) {
	runs := []Run{
		{ID: "1", Time: time.Unix(1, 0), Metrics: map[string]float64{"a": 1}},
		{ID: "2", Time: time.Unix(2, 0), Metrics: map[string]float64{"a": 2, "b": 9}},
	}
	vals, idx := History(runs, "a")
	if len(vals) != 2 || vals[1] != 2 || idx[1] != 1 {
		t.Errorf("History = %v, %v", vals, idx)
	}
	names := MetricNames(runs)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("MetricNames = %v", names)
	}
}

// TestIngestSpanProfile: a span self-profile lands in the ledger as
// walltime: metrics — the tree extent plus per-name total and self times.
func TestIngestSpanProfile(t *testing.T) {
	doc := `{"wall_ns": 2000000, "spans": 3, "entries": [
		{"name": "fidelity.check", "count": 1, "total_ns": 2000000, "self_ns": 500000, "max_ns": 2000000},
		{"name": "cell/flip", "count": 2, "total_ns": 1500000, "self_ns": 1500000, "max_ns": 900000}]}`
	var run Run
	if err := IngestSpanProfile(&run, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"walltime:wall:ns":                 2e6,
		"walltime:fidelity.check:total_ns": 2e6,
		"walltime:fidelity.check:self_ns":  5e5,
		"walltime:cell/flip:total_ns":      1.5e6,
		"walltime:cell/flip:self_ns":       1.5e6,
	}
	for name, v := range want {
		if run.Metrics[name] != v {
			t.Errorf("%s = %v, want %v", name, run.Metrics[name], v)
		}
	}
	if len(run.Metrics) != len(want) {
		t.Errorf("ingested %d metrics, want %d: %v", len(run.Metrics), len(want), run.Metrics)
	}
	if !IsWalltime("walltime:gate:ns") || IsWalltime("bench:X:ns_per_op") {
		t.Error("IsWalltime misclassifies the walltime namespace")
	}
}

// TestIngestServeJSON: a BENCH_serve.json serving record lands in the
// ledger as serve: metrics — throughput and latency quantiles per
// scheme×front, plus the read/write p99 split. A result without a front
// label (a record from before the front-pluggable harness) ingests as
// the coarse front it measured.
func TestIngestServeJSON(t *testing.T) {
	doc := `{"benchmark": "BenchmarkServe", "results": [
		{"scheme": "deuce", "front": "sharded", "ops_per_sec": 650000,
		 "lat": {"n": 20000, "mean_ns": 900, "p50_ns": 700, "p90_ns": 1200, "p99_ns": 4700, "p999_ns": 29000, "max_ns": 150000},
		 "read_lat": {"p99_ns": 3800}, "write_lat": {"p99_ns": 5400}},
		{"scheme": "encr-dcw", "ops_per_sec": 880000,
		 "lat": {"mean_ns": 800, "p50_ns": 600, "p90_ns": 1100, "p99_ns": 4100, "p999_ns": 21000},
		 "read_lat": {"p99_ns": 3200}, "write_lat": {"p99_ns": 4800}}]}`
	var run Run
	if err := IngestServeJSON(&run, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"serve:deuce:sharded:ops_per_sec":   650000,
		"serve:deuce:sharded:mean_ns":       900,
		"serve:deuce:sharded:p50_ns":        700,
		"serve:deuce:sharded:p90_ns":        1200,
		"serve:deuce:sharded:p99_ns":        4700,
		"serve:deuce:sharded:p999_ns":       29000,
		"serve:deuce:sharded:read_p99_ns":   3800,
		"serve:deuce:sharded:write_p99_ns":  5400,
		"serve:encr-dcw:coarse:ops_per_sec": 880000,
		"serve:encr-dcw:coarse:p99_ns":      4100,
		"serve:encr-dcw:coarse:read_p99_ns": 3200,
	}
	for name, v := range want {
		if run.Metrics[name] != v {
			t.Errorf("%s = %v, want %v", name, run.Metrics[name], v)
		}
	}
	if len(run.Metrics) != 16 { // 8 metrics per scheme×front
		t.Errorf("ingested %d metrics, want 16: %v", len(run.Metrics), run.Metrics)
	}
	if !IsServe("serve:deuce:coarse:p99_ns") || IsServe("bench:X:ns_per_op") || IsServe("walltime:gate:ns") {
		t.Error("IsServe misclassifies the serve namespace")
	}
}

// TestIngestServeJSONRejectsEmpty: an empty or schemeless record must
// fail loudly instead of recording a run with no serving metrics.
func TestIngestServeJSONRejectsEmpty(t *testing.T) {
	var run Run
	if err := IngestServeJSON(&run, strings.NewReader(`{"benchmark": "BenchmarkServe", "results": []}`)); err == nil {
		t.Error("empty results accepted")
	}
	if err := IngestServeJSON(&run, strings.NewReader(`{"results": [{"ops_per_sec": 1}]}`)); err == nil {
		t.Error("schemeless result accepted")
	}
	if err := IngestServeJSON(&run, strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
