// Package obs is the simulator's observability layer: a metrics registry,
// a sampled write-event trace, wear heatmaps, experiment progress tracking,
// a run manifest, and a debug HTTP endpoint.
//
// The design rule throughout is "zero allocation on the hot path": a scheme,
// device or serving client records through pre-resolved handles and into
// pre-sized memory. All aggregation, formatting and export happens off the
// record path, at snapshot or export time.
//
// The metrics registry is built on two disciplines:
//
//   - Lock-free, zero-allocation recording. Hist.Observe is a bucket-index
//     computation plus three atomic adds into constant, preallocated
//     memory; Counter.Add is one atomic add into a cache-line-padded
//     stripe. No mutexes, no channels, no allocation — recording costs
//     nanoseconds regardless of contention.
//
//   - Merge-on-snapshot. Writers never coordinate; stripes are summed and
//     histograms merged bucket-wise only when a snapshot is taken. Merges
//     are exact — merging K striped histograms yields bit-identical
//     buckets to observing the concatenated stream (property-tested) — so
//     quantiles computed from a merged snapshot are as good as from a
//     single global histogram, without a single shared cache line on the
//     record path.
//
// Registration (the name → handle lookups) takes the registry mutex and
// belongs in setup code, never on a hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// paddedU64 is an atomic uint64 alone on its cache line, so adjacent
// stripes never false-share: with one stripe per worker, the record path
// touches memory no other core writes.
type paddedU64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a striped monotonic counter: each worker adds into its own
// cache-line-padded slot, and Value sums the stripes. Adds from any
// stripe index are safe from any goroutine (slots are atomic); striping
// is a performance contract, not a safety one.
type Counter struct {
	slots []paddedU64
	mask  uint32
}

// Add adds n on the given worker's stripe.
func (c *Counter) Add(stripe int, n uint64) { c.slots[uint32(stripe)&c.mask].v.Add(n) }

// Inc adds one on the given worker's stripe.
func (c *Counter) Inc(stripe int) { c.Add(stripe, 1) }

// Value sums the stripes. Like every merge-on-snapshot read it is exact
// once writers quiesce, and a consistent floor while they run.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.slots {
		total += c.slots[i].v.Load()
	}
	return total
}

// Gauge is a last-value-wins metric (e.g. a run's flip fraction, a plan's
// cell count). Updates are atomic (the float64 is stored by bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// StripedHist is one histogram per stripe: workers observe into their own
// Hist (no shared cache lines at all on the record path) and Snapshot
// merges the stripes exactly.
type StripedHist struct {
	stripes []*Hist
	mask    uint32
}

// Stripe returns the given worker's histogram. Workers resolve it once
// and observe into it directly: lock-free, zero-alloc.
func (h *StripedHist) Stripe(stripe int) *Hist { return h.stripes[uint32(stripe)&h.mask] }

// Snapshot merges every stripe into one exact snapshot.
func (h *StripedHist) Snapshot() HistSnapshot {
	out := h.stripes[0].Snapshot()
	for _, s := range h.stripes[1:] {
		out = out.Merge(s.Snapshot())
	}
	return out
}

// Registry holds named metrics. Handles returned by Counter/Gauge/Hist
// stay valid for the registry's lifetime, so hot paths resolve names once
// at setup and then touch only the handle. Stripe count is fixed at
// construction and rounded up to a power of two so stripe selection is a
// mask.
type Registry struct {
	mu       sync.Mutex
	stripes  int
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*StripedHist
}

// NewRegistry creates a registry with the given stripe count (minimum 1,
// rounded up to a power of two). Size it to the worker count: one stripe
// per client goroutine eliminates record-path contention. Single-writer
// tools pass 1 and record on stripe 0.
func NewRegistry(stripes int) *Registry {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &Registry{
		stripes:  n,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*StripedHist),
	}
}

// Counter returns the named striped counter, creating it at zero on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{slots: make([]paddedU64, r.stripes), mask: uint32(r.stripes - 1)}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Hist returns the named striped histogram, creating it on first use.
func (r *Registry) Hist(name string) *StripedHist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &StripedHist{stripes: make([]*Hist, r.stripes), mask: uint32(r.stripes - 1)}
	for i := range h.stripes {
		h.stripes[i] = &Hist{}
	}
	r.hists[name] = h
	return h
}

// Snapshot merges every metric across its stripes: counters as sums,
// gauges as their last value, histograms as exact bucket-wise merges
// summarized to the fixed quantile set. Safe concurrently with recording;
// exact once writers quiesce.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Lat:      make(map[string]Quantiles, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Lat[name] = h.Snapshot().Summarize()
	}
	return s
}

// Snapshot is a point-in-time merged view of a Registry: striped counters
// summed, gauges' last values, histograms reduced to the fixed quantile
// set. It is the JSON behind the cmds' -metrics flag (which
// internal/regress ingests), the /debug/vars rendering, and the JSONL
// record schema the Streamer emits (with TMs stamped), pinned by a golden
// test.
type Snapshot struct {
	// TMs is milliseconds since the stream's start; 0 on direct snapshots.
	TMs int64 `json:"t_ms"`
	// Counters holds each striped counter's merged total.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges holds each gauge's last value.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Lat holds each histogram's quantile summary.
	Lat map[string]Quantiles `json:"lat,omitempty"`
}

// String renders the snapshot as sorted "name value" lines, with
// histograms as one-line quantile summaries.
func (s Snapshot) String() string {
	var b []byte
	for _, n := range sortedKeys(s.Counters) {
		b = fmt.Appendf(b, "%s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		b = fmt.Appendf(b, "%s %g\n", n, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Lat) {
		q := s.Lat[n]
		b = fmt.Appendf(b, "%s n=%d p50=%.0fns p99=%.0fns max=%dns\n", n, q.N, q.P50Ns, q.P99Ns, q.MaxNs)
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSONFile writes the snapshot as indented JSON to path, creating
// parent directories as needed. This is the export behind the cmds'
// -metrics flag and the format internal/regress ingests into the
// cross-run ledger.
func (s Snapshot) WriteJSONFile(path string) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
