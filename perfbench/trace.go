package main

import "fmt"

// layerMetric is one per-layer metric: its unit, and the end-to-end
// metric and workload a change to it should move (BENCHMARK.json's entries
// have no room for that map, so it lives here).
type layerMetric struct {
	name, unit, moves string
}

// perLayer lists every per-layer metric in BENCHMARK.json's order. A traced
// run reports exactly these.
var perLayer = []layerMetric{
	{"exp.cells_run", "count", "wall_s on gate; warm-fork or timing.Sharded deletions must leave it unchanged"},
	{"exp.cache_hit_frac", "frac", "wall_s on gate"},
	{"exp.cell_wear_s", "s", "wall_s on gate"},
	{"exp.cell_flip_s", "s", "wall_s on gate"},
	{"exp.cell_perf_s", "s", "wall_s on gate"},
	{"exp.warmup_s", "s", "wall_s on gate"},
	{"exp.pool_idle_frac", "frac", "wall_s on gate"},
	{"workload.wb_ns", "ns", "wall_s on gate and timed; nothing on serve or durable, whose inputs are pre-generated"},
	{"workload.event_ns", "ns", "wall_s on timed and gate; nothing on serve or durable"},
	{"array.write_ns", "ns", "wall_s on gate (Start-Gap over pcmdev); not timed, which has no leveler"},
	{"array.peek_ns", "ns", "wall_s on gate; not timed"},
	{"array.calls_per_write", "count", "wall_s on gate; not timed"},
	{"timing.self_ns_per_event", "ns", "wall_s on timed; small on gate"},
	{"timing.events", "count", "wall_s on timed; a speed-only change leaves it unchanged"},
	{"core.write_ns", "ns", "wall_s on gate and timed, p50_us on serve, ops_per_s on durable"},
	{"core.read_ns", "ns", "p50_us on serve"},
	{"core.slots_per_write", "count", "all four workloads; a speed-only change leaves it unchanged"},
	{"core.restore_s", "s", "wall_s on durable (reopen)"},
	{"servefront.get_ns", "ns", "p99_us and ops_per_s on serve"},
	{"servefront.put_ns", "ns", "p99_us and ops_per_s on serve"},
	{"servefront.lock_wait_ns", "ns", "p99_us and ops_per_s on serve"},
	{"servefront.max_shard_share", "frac", "p99_us on serve"},
	{"kvstore.get_ns", "ns", "p50_us on serve"},
	{"kvstore.put_ns", "ns", "p50_us on serve"},
	{"memory.read_ns", "ns", "p50_us on serve"},
	{"memory.write_ns", "ns", "p50_us on serve"},
	{"backend.sync_ns", "ns", "ops_per_s and p99_us on durable"},
	{"backend.sync_calls", "count", "ops_per_s on durable"},
	{"backend.disk_bytes_per_user_byte", "ratio", "ops_per_s on durable"},
	{"backend.pager", "bool", "ops_per_s on durable (1: the mmap fast path is engaged)"},
	{"backend.open_s", "s", "wall_s on durable (reopen)"},
	{"gc.allocs_per_op", "count", "p99_us and wall_s on the run's own workload"},
	{"gc.pause_s", "s", "p99_us and wall_s on the run's own workload"},
	{"trace.overhead", "x", "none: traced over untraced time of the run's own workload"},
}

// traceAll is a traced run of workload own: its replay at full scale
// first, then a probe of every other workload for the layers own does not
// reach. A metric comes from the first replay that reports it, so the
// workload's own figures (core, gc, trace overhead) are never replaced by
// a probe's.
func traceAll(cfg config, own string) (map[string]metric, tally, error) {
	var t tally
	m, err := workloads[own].layers(cfg, true, &t)
	if err != nil {
		return nil, t, err
	}
	for _, n := range workloadNames() {
		if n == own {
			continue
		}
		pm, err := workloads[n].layers(cfg, false, &t)
		if err != nil {
			return nil, t, fmt.Errorf("%s probe: %w", n, err)
		}
		for k, v := range pm {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
	}
	want := make(map[string]bool, len(perLayer))
	for _, l := range perLayer {
		want[l.name] = true
		if got, ok := m[l.name]; !ok || got.Unit != l.unit {
			return nil, t, fmt.Errorf("replays reported %s as %+v, want unit %s", l.name, got, l.unit)
		}
	}
	for k := range m {
		if !want[k] {
			return nil, t, fmt.Errorf("replay reported %s, which is not a listed per-layer metric", k)
		}
	}
	return m, t, nil
}
