package exp

import (
	"fmt"
	"sync/atomic"

	"deuce/internal/obs"
)

// warmReuseOff disables the warm-state fast paths when set. The zero value
// means enabled: warm-state reuse is on by default and SetWarmReuse(false)
// restores the PR-4 baseline (grid- and table-level memoization only).
var warmReuseOff atomic.Bool

// SetWarmReuse toggles warm-state reuse: the per-cell result caches and
// the warm-stream fast path that replays a shared warmup instead of
// synthesizing one per cell. Disabling it
// restores the cold behavior (every cell builds and warms its own scheme),
// which the cold leg of `make bench-warm` uses as the comparison baseline.
// Already-cached entries are not dropped; pair with ResetCache for a truly
// cold run.
func SetWarmReuse(enabled bool) { warmReuseOff.Store(!enabled) }

// warmReuseEnabled reports whether the warm-state fast paths are active.
func warmReuseEnabled() bool { return !warmReuseOff.Load() }

// Reuse counters. warmReplays counts cells that replayed a shared warm
// stream instead of synthesizing their own warmup, coldCells the cells
// that warmed up for themselves; warmStreams and measuredStreams count
// the shared streams actually synthesized.
var warmReplays, coldCells, warmStreams, measuredStreams atomic.Int64

// ReuseStats is a point-in-time snapshot of warm-state reuse and
// experiment-cache effectiveness, for reporting (deucereport) and metrics.
type ReuseStats struct {
	// WarmReplays is the number of cells that replayed a shared warm
	// stream into a fresh scheme instead of synthesizing their warmup.
	// Flip and wear cells among them also replayed a measured stream.
	WarmReplays int64
	// ColdCells is the number of cells that synthesized their own warmup
	// and measured window: reuse off, a trace hook or a durable backend.
	ColdCells int64
	// WarmStreams and MeasuredStreams are the shared warmups and measured
	// windows synthesized. A stream released by the planner and needed
	// again is synthesized again, and counts again.
	WarmStreams     int64
	MeasuredStreams int64
	// ColdWarmups is the number of warmup syntheses executed for real:
	// ColdCells plus WarmStreams.
	ColdWarmups int64
	// CacheHits / CacheMisses are the process-wide experiment cache's
	// counters (grids, tables, cells and streams all share it).
	CacheHits   int64
	CacheMisses int64
}

// Reuse reports warm-state reuse effectiveness since process start (or the
// last ResetReuse).
func Reuse() ReuseStats {
	hits, misses := sharedCache.Stats()
	r := ReuseStats{
		WarmReplays:     warmReplays.Load(),
		ColdCells:       coldCells.Load(),
		WarmStreams:     warmStreams.Load(),
		MeasuredStreams: measuredStreams.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
	}
	r.ColdWarmups = r.ColdCells + r.WarmStreams
	return r
}

// String renders the stats as the one-line `reuse:` summary deucereport
// and benchwarm print. CI greps its ", 0 cold cells" on the gate.
func (r ReuseStats) String() string {
	return fmt.Sprintf("reuse: %d streams synthesized (%d warm, %d measured), %d cells replayed, %d cold cells; cache %d hits / %d misses",
		r.WarmStreams+r.MeasuredStreams, r.WarmStreams, r.MeasuredStreams,
		r.WarmReplays, r.ColdCells, r.CacheHits, r.CacheMisses)
}

// ResetReuse zeroes the reuse counters. The experiment cache's own
// counters reset with ResetCache.
func ResetReuse() {
	warmReplays.Store(0)
	coldCells.Store(0)
	warmStreams.Store(0)
	measuredStreams.Store(0)
}

// RecordReuseMetrics publishes reuse effectiveness into a metrics
// registry, alongside whatever run metrics the caller collected.
func RecordReuseMetrics(reg *obs.Registry) {
	r := Reuse()
	reg.Gauge("reuse_warm_replays").Set(float64(r.WarmReplays))
	reg.Gauge("reuse_cold_warmups").Set(float64(r.ColdWarmups))
	reg.Gauge("reuse_cache_hits").Set(float64(r.CacheHits))
	reg.Gauge("reuse_cache_misses").Set(float64(r.CacheMisses))
}
