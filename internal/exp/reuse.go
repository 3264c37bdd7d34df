package exp

import (
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

// warmReplays counts grid cells that replayed a shared warm stream
// instead of synthesizing their own warmup; coldWarmups counts warmup
// syntheses actually executed (cold cells plus one per cached stream).
var warmReplays, coldWarmups atomic.Int64

// ReuseStats is a point-in-time snapshot of warm-state reuse and
// experiment-cache effectiveness, for reporting (deucereport) and metrics.
type ReuseStats struct {
	// WarmReplays is the number of cells that replayed a shared warm
	// stream into a fresh scheme instead of synthesizing their warmup.
	WarmReplays int64
	// ColdWarmups is the number of warmup syntheses executed for real:
	// cells that could not replay plus one per warm stream cached.
	ColdWarmups int64
	// CacheHits / CacheMisses are the process-wide experiment cache's
	// counters (grids, tables, cells and warm states all share it).
	CacheHits   int64
	CacheMisses int64
}

// Reuse reports warm-state reuse effectiveness since process start (or the
// last ResetReuse).
func Reuse() ReuseStats {
	hits, misses := sharedCache.Stats()
	return ReuseStats{
		WarmReplays: warmReplays.Load(),
		ColdWarmups: coldWarmups.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
	}
}

// ResetReuse zeroes the warm-replay/cold-warmup counters. The experiment
// cache's own counters reset with ResetCache.
func ResetReuse() {
	warmReplays.Store(0)
	coldWarmups.Store(0)
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
