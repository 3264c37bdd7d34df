// Command benchwarm measures the fidelity gate's wall clock in its three
// execution modes, over the same expectations the CI gate checks, and
// writes the result as a BENCH_*.json record:
//
//   - gate_cold: warm-state reuse disabled (exp.SetWarmReuse(false)) with
//     fresh caches — the pre-reuse baseline, where every grid cell builds
//     and warms its own scheme (grid- and table-level memoization only).
//   - gate_warm_reuse: reuse enabled with fresh caches — warmup streams
//     are synthesized once per (workload, geometry, seed) tuple and
//     replayed per cell, cells shared across figures run once, and the
//     planner fans the unique cells through the pool.
//   - gate_incremental_recheck: a second `deucereport check -outdir`-style
//     run against the recording the warm run just produced — every
//     experiment's Inputs hash still matches, so zero experiments re-run.
//
// All three runs must verdict identically; benchwarm exits non-zero if
// they differ, so the ledger never records a speedup bought with drift.
//
// Usage: go run ./ci/benchwarm -writebacks 6000 -lines 512 -out BENCH_warm.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"deuce/internal/exp"
	"deuce/internal/fidelity"
	"deuce/internal/obs"
)

// record mirrors the schema of BENCH_writehot.json so
// `deucereport record -bench` ingests it unchanged.
type record struct {
	obs.BenchHeader
	Results []result `json:"results"`
	Notes   string   `json:"notes"`
}

type result struct {
	Scheme      string `json:"scheme"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

func main() {
	writebacks := flag.Int("writebacks", 6000, "measured writebacks per workload")
	lines := flag.Int("lines", 512, "working-set lines per core")
	seed := flag.Int64("seed", 1, "workload generator seed")
	out := flag.String("out", "BENCH_warm.json", "output JSON path")
	flag.Parse()

	rc := exp.RunConfig{Writebacks: *writebacks, Lines: *lines, Seed: *seed}
	// The same expectation set the CI gate checks (`deucereport check
	// -experiment all`): the paper's figures plus the extension drills.
	exps := append(fidelity.Expectations(), fidelity.ExtensionExpectations()...)

	gate := func(label string) (*fidelity.Report, map[string]*exp.Table, time.Duration) {
		exp.ResetCache()
		exp.ResetReuse()
		start := time.Now()
		report, tables, err := fidelity.Check(rc, exps)
		if err != nil {
			fatal("%s: %v", label, err)
		}
		elapsed := time.Since(start)
		r := exp.Reuse()
		fmt.Printf("%s: %v (%s; %d cells replayed a shared warm stream, %d cold warmups, cache %d hits / %d misses)\n",
			label, elapsed.Round(time.Millisecond), report.Summary(),
			r.WarmReplays, r.ColdWarmups, r.CacheHits, r.CacheMisses)
		return report, tables, elapsed
	}

	exp.SetWarmReuse(false)
	coldReport, _, cold := gate("gate_cold")

	exp.SetWarmReuse(true)
	warmReport, tables, warm := gate("gate_warm_reuse")

	// The incremental leg round-trips the recording through disk, exactly
	// as CI's `check -outdir` does across two invocations.
	dir, err := os.MkdirTemp("", "benchwarm")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(dir)
	if err := exp.WriteTables(dir, tables); err != nil {
		fatal("%v", err)
	}
	recorded, err := exp.LoadTables(dir)
	if err != nil {
		fatal("%v", err)
	}
	exp.ResetCache()
	exp.ResetReuse()
	start := time.Now()
	incReport, _, inc, err := fidelity.CheckWithRecorded(rc, exps, recorded)
	if err != nil {
		fatal("gate_incremental_recheck: %v", err)
	}
	increment := time.Since(start)
	fmt.Printf("gate_incremental_recheck: %v (%s; %d reused, %d re-run)\n",
		increment.Round(time.Millisecond), incReport.Summary(), len(inc.Reused), len(inc.Reran))
	if len(inc.Reran) != 0 {
		fatal("incremental recheck re-ran %d experiments against an unchanged recording: %v", len(inc.Reran), inc.Reran)
	}

	// A speedup bought with different verdicts would be a correctness bug,
	// not an optimization; refuse to record it.
	if !reflect.DeepEqual(coldReport, warmReport) {
		fatal("warm-reuse gate verdicts differ from the cold gate")
	}
	if !reflect.DeepEqual(coldReport, incReport) {
		fatal("incremental gate verdicts differ from the cold gate")
	}

	fmt.Printf("speedup: warm reuse %.2fx, incremental recheck %.1fx\n",
		float64(cold)/float64(warm), float64(cold)/float64(increment))

	rec := record{
		BenchHeader: obs.NewBenchHeader("BenchmarkFidelityGate", fmt.Sprintf("Full fidelity gate (deucereport check -experiment all, %d writebacks, %d lines — the CI gate scale) wall clock: cold (warm-state reuse off), with warm-state reuse and the experiment planner, and as an incremental recheck against the run's own recording. Regenerate with `make bench-warm`.",
			*writebacks, *lines)),
		Results: []result{
			{Scheme: "gate_cold", NsPerOp: cold.Nanoseconds()},
			{Scheme: "gate_warm_reuse", NsPerOp: warm.Nanoseconds()},
			{Scheme: "gate_incremental_recheck", NsPerOp: increment.Nanoseconds()},
		},
		Notes: "ns_per_op is one full gate invocation; bytes/allocs are not collected for whole-gate runs. All three modes verdict identically (enforced by this tool before writing). The warm-reuse gain is bounded by Figure 14, which dominates gate wall clock and cannot share warm state (wear cells warm up behind a wrapped array); the incremental recheck is where the gate becomes effectively free — zero experiment re-runs when no input changed, with invalidation via the Inputs content hash (code-version salt + scale + canonical cell keys).",
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// fatal prints a formatted error and exits non-zero.
func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchwarm: "+format+"\n", args...)
	os.Exit(1)
}
