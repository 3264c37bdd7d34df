package exp

import (
	"fmt"
	"testing"

	"deuce/internal/core"
	"deuce/internal/workload"
)

// BenchmarkTimedCell measures one timed perf-grid cell (RunPerf, the unit
// the fidelity gate's 48-cell grid repeats) at 1/2/4/8 costing shards, at
// the CI gate scale (6000 writebacks, 512 lines). shards=1 is the
// sequential reference engine; higher counts exercise the sharded
// pipeline. On a single-core host the sharded engine only shows its
// pipeline overhead; speedup needs free CPUs (see EXPERIMENTS.md).
// Regenerate BENCH_timing.json with `make bench-timing`.
//
// Every iteration runs the cell for real, warmup included: warm-state
// reuse is off for the benchmark, so neither the cell cache (whose key
// deliberately omits TimingShards) nor a cached warm state can serve it,
// and the benchmark fails unless RunPerf executed exactly b.N times.
func BenchmarkTimedCell(b *testing.B) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	prev := warmReuseEnabled()
	SetWarmReuse(false)
	defer SetWarmReuse(prev)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rc := RunConfig{Writebacks: 6000, Lines: 512, Seed: 1, TimingShards: shards}
			b.ReportAllocs()
			before := RunPerfCalls()
			for i := 0; i < b.N; i++ {
				if _, err := RunPerf(prof, core.KindDeuce, core.Params{}, rc); err != nil {
					b.Fatal(err)
				}
			}
			if ran := RunPerfCalls() - before; ran != int64(b.N) {
				b.Fatalf("RunPerf executed %d times for b.N=%d: the benchmark timed a cache hit", ran, b.N)
			}
		})
	}
}
