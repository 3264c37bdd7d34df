// Package servebench is the concurrent serving benchmark: N client
// goroutines issue a Zipfian mixed read/write key-value workload against
// a pluggable concurrency front end, with per-request latency recorded
// through the repo's one metrics registry, obs.Registry, sized to one
// stripe per client (striped counters, lock-free log-bucketed latency
// histograms) and reduced to p50/p90/p99/p999 plus throughput per scheme
// — the BENCH_serve.json record the regression ledger ingests.
//
// Two front ends implement the Front interface. Coarse is the deliberate
// baseline: one single-writer lock around one shared kvstore, every
// request serializing through it. servefront.Sharded is the contender:
// S independent line-region shards, each with its own scheme instance
// and lock, so requests to different shards never contend. Both report
// the same merged deuce.Stats, so the paper's write accounting is
// comparable across fronts bit-for-bit. The telemetry itself never
// serializes anything: recording a request is a few atomic adds into
// per-client stripes, so the front end is the only coordination point
// in the loop.
package servebench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"deuce"
	"deuce/internal/kvstore"
	"deuce/internal/obs"
	"deuce/internal/servefront"

	"math/rand"
)

// Front names accepted by Config.Front.
const (
	// FrontCoarse is the single-lock baseline front end.
	FrontCoarse = "coarse"
	// FrontSharded is the sharded single-writer-line front end
	// (internal/servefront).
	FrontSharded = "sharded"
)

// Config sizes one serving run. The zero value of every field selects a
// default; Clients and Ops set the concurrency and total request count.
type Config struct {
	// Scheme is the write scheme under test; empty means DEUCE.
	Scheme deuce.Scheme
	// Front selects the concurrency front end: FrontCoarse (default) or
	// FrontSharded.
	Front string
	// Shards is the shard count when Front is FrontSharded (default 8;
	// ignored by the coarse front). Lines must split evenly over it.
	Shards int
	// Clients is the number of concurrent client goroutines (default 8).
	Clients int
	// Ops is the total request count across all clients (default 20000).
	Ops int
	// ReadFraction is the probability a request is a Get. Values outside
	// (0,1] — including the zero value — select the 0.5 default; 1 means
	// read-only. (A write-only run is not expressible; the store's write
	// cost already has a dedicated harness in examples/securekv.)
	ReadFraction float64
	// Keys is the keyspace size (default Lines/4, so the table stays
	// sparse enough for linear probing).
	Keys int
	// Lines is the memory capacity in 64-byte lines (default 4096).
	Lines int
	// ZipfS is the Zipfian skew exponent (>1; default 1.1 — a hot-key
	// distribution shaped like KV serving traffic).
	ZipfS float64
	// Seed seeds the per-client workload generators (default 1).
	Seed int64
	// StreamInterval is the JSONL snapshot cadence when a stream writer
	// is passed to Run (default 1s).
	StreamInterval time.Duration
	// ExpvarName, when non-empty, publishes the run's live metrics under
	// this expvar name (visible on obs.ServeDebug's /debug/vars).
	ExpvarName string
}

func (c *Config) setDefaults() {
	if c.Scheme == "" {
		c.Scheme = deuce.DEUCE
	}
	if c.Front == "" {
		c.Front = FrontCoarse
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Ops <= 0 {
		c.Ops = 20000
	}
	if c.ReadFraction <= 0 || c.ReadFraction > 1 {
		c.ReadFraction = 0.5
	}
	if c.Lines <= 0 {
		c.Lines = 4096
	}
	if c.Keys <= 0 {
		c.Keys = c.Lines / 4
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = time.Second
	}
}

// MemStats is the memory-side write accounting of one serving run: the
// exact integer counters from the front end's merged deuce.Stats,
// recorded so BENCH_serve.json proves both fronts did identical
// memory-level work (latency varies with the host; flips must not).
type MemStats struct {
	// Writes is the total line writes (preload included).
	Writes uint64 `json:"writes"`
	// Reads is the total line reads.
	Reads uint64 `json:"reads"`
	// BitFlips is the total cell bit flips — the paper's figure of merit.
	BitFlips uint64 `json:"bit_flips"`
	// WriteSlots is the total 128-bit write slots consumed.
	WriteSlots uint64 `json:"write_slots"`
}

// Result is one scheme's serving measurement: counts, wall clock,
// throughput, and the latency quantile summaries (overall, reads,
// writes). Its JSON shape is the per-scheme record inside
// BENCH_serve.json.
type Result struct {
	// Scheme is the measured write scheme.
	Scheme string `json:"scheme"`
	// Front is the front end measured (FrontCoarse or FrontSharded).
	Front string `json:"front"`
	// Shards is the shard count the front used (1 for coarse).
	Shards int `json:"shards"`
	// Clients is the client goroutine count the run used.
	Clients int `json:"clients"`
	// Ops is the completed request count.
	Ops uint64 `json:"ops"`
	// Reads is the completed Get count.
	Reads uint64 `json:"reads"`
	// Writes is the completed Put count.
	Writes uint64 `json:"writes"`
	// Misses is the Get count that found no record. A miss is a workload
	// property, not a failure; it is reported here and never aborts a
	// run.
	Misses uint64 `json:"misses"`
	// DurationNs is the measured wall clock of the request phase.
	DurationNs int64 `json:"duration_ns"`
	// OpsPerSec is Ops over the measured duration.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Mem is the front end's merged memory accounting after the run.
	Mem MemStats `json:"mem"`
	// Lat summarizes every request's latency (exact merge of the read
	// and write histograms).
	Lat obs.Quantiles `json:"lat"`
	// ReadLat summarizes Get latencies.
	ReadLat obs.Quantiles `json:"read_lat"`
	// WriteLat summarizes Put latencies.
	WriteLat obs.Quantiles `json:"write_lat"`
}

// Front is the concurrency front end under test. Implementations must be
// safe for concurrent use; Get copies the value into dst (sized
// kvstore.MaxVal by callers) so the request loop allocates nothing.
type Front interface {
	// Get fetches key's value into dst, reporting its length and
	// whether the key was present.
	Get(key string, dst []byte) (int, bool)
	// Put inserts or updates a record.
	Put(key, value string) error
	// Stats reports the merged memory accounting across the front end's
	// scheme instances.
	Stats() deuce.Stats
}

// Coarse is the single-lock baseline front end: one shared kvstore, every
// request — read or write — serialized through one mutex.
type Coarse struct {
	mu  sync.Mutex
	kv  *kvstore.Store
	mem *deuce.Memory
}

// NewCoarse wraps mem's kvstore in the coarse single-lock front end.
func NewCoarse(mem *deuce.Memory) *Coarse {
	return &Coarse{kv: kvstore.New(mem), mem: mem}
}

// Get serializes a read through the front-end lock.
func (f *Coarse) Get(key string, dst []byte) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kv.GetInto(key, dst)
}

// Put serializes a write through the front-end lock.
func (f *Coarse) Put(key, value string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kv.Put(key, value)
}

// Stats reports the backing memory's accounting.
func (f *Coarse) Stats() deuce.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mem.Stats()
}

// newFront builds the configured front end.
func newFront(cfg Config) (Front, int, error) {
	switch cfg.Front {
	case FrontCoarse:
		mem, err := deuce.New(deuce.Options{Lines: cfg.Lines, Scheme: cfg.Scheme})
		if err != nil {
			return nil, 0, err
		}
		return NewCoarse(mem), 1, nil
	case FrontSharded:
		sf, err := servefront.New(servefront.Config{
			Scheme: cfg.Scheme,
			Shards: cfg.Shards,
			Lines:  cfg.Lines,
		})
		if err != nil {
			return nil, 0, err
		}
		return sf, cfg.Shards, nil
	default:
		return nil, 0, fmt.Errorf("servebench: unknown front %q (want %s or %s)",
			cfg.Front, FrontCoarse, FrontSharded)
	}
}

// Run executes one serving benchmark: build the configured front end,
// preload the keyspace, then fire Clients goroutines at it until Ops
// requests complete, recording per-request latency into striped
// histograms. When stream is non-nil, an obs.Streamer emits JSONL
// snapshots every StreamInterval while the run is in flight.
func Run(cfg Config, stream io.Writer) (Result, error) {
	cfg.setDefaults()
	front, shards, err := newFront(cfg)
	if err != nil {
		return Result{}, err
	}

	// Preload every key (unmeasured) and pre-generate keys and values so
	// the request loop allocates nothing of its own — per-op cost is the
	// front end plus telemetry, not fmt.
	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%06d", i)
		if err := front.Put(keys[i], "0"); err != nil {
			return Result{}, fmt.Errorf("servebench: preload: %w", err)
		}
	}
	vals := make([]string, 256)
	for i := range vals {
		vals[i] = fmt.Sprintf("v-%08d", i*i)
	}

	m := obs.NewRegistry(cfg.Clients)
	ops := m.Counter("ops")
	reads := m.Counter("reads")
	writes := m.Counter("writes")
	misses := m.Counter("misses")
	errs := m.Counter("errors")
	latRead := m.Hist("lat_read")
	latWrite := m.Hist("lat_write")
	if cfg.ExpvarName != "" {
		m.Expvar(cfg.ExpvarName)
	}

	var streamer *obs.Streamer
	if stream != nil {
		streamer = obs.NewStreamer(m, stream, cfg.StreamInterval)
		streamer.Start()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		n := cfg.Ops / cfg.Clients
		if w < cfg.Ops%cfg.Clients {
			n++
		}
		wg.Add(1)
		go func(stripe, n int) {
			defer wg.Done()
			// Per-client generators: no shared RNG state, deterministic
			// per (seed, client) request sequence. The value buffer is
			// per-client too, so Gets stay zero-allocation.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(stripe)*7919))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(keys)-1))
			rHist := latRead.Stripe(stripe)
			wHist := latWrite.Stripe(stripe)
			var vbuf [kvstore.MaxVal]byte
			for i := 0; i < n; i++ {
				key := keys[zipf.Uint64()]
				isRead := rng.Float64() < cfg.ReadFraction
				t0 := time.Now()
				if isRead {
					_, ok := front.Get(key, vbuf[:])
					d := time.Since(t0)
					rHist.Observe(uint64(d.Nanoseconds()))
					reads.Inc(stripe)
					if !ok {
						// A miss is workload shape, not failure.
						misses.Inc(stripe)
					}
				} else {
					err := front.Put(key, vals[i%len(vals)])
					d := time.Since(t0)
					wHist.Observe(uint64(d.Nanoseconds()))
					writes.Inc(stripe)
					if err != nil {
						errs.Inc(stripe)
					}
				}
				ops.Inc(stripe)
			}
		}(w, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if streamer != nil {
		if err := streamer.Stop(); err != nil {
			return Result{}, err
		}
	}

	// Only Put failures are real errors (a full table means the run was
	// missized). Get misses are reported in the result, never fatal.
	if n := errs.Value(); n != 0 {
		return Result{}, fmt.Errorf("servebench: %d writes failed (full table?)", n)
	}

	// Final summary from quiesced metrics: exact counts, and the overall
	// latency distribution as the exact merge of the read and write
	// histograms — the property the striped design guarantees.
	readSnap := latRead.Snapshot()
	writeSnap := latWrite.Snapshot()
	st := front.Stats()
	res := Result{
		Scheme:     string(cfg.Scheme),
		Front:      cfg.Front,
		Shards:     shards,
		Clients:    cfg.Clients,
		Ops:        ops.Value(),
		Reads:      reads.Value(),
		Writes:     writes.Value(),
		Misses:     misses.Value(),
		DurationNs: elapsed.Nanoseconds(),
		Mem: MemStats{
			Writes:     st.Writes,
			Reads:      st.Reads,
			BitFlips:   st.BitFlips,
			WriteSlots: st.WriteSlots,
		},
		Lat:      readSnap.Merge(writeSnap).Summarize(),
		ReadLat:  readSnap.Summarize(),
		WriteLat: writeSnap.Summarize(),
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	return res, nil
}

// SummaryLine renders the one-line per-scheme summary the serving harness
// prints: scheme, front end, scale, throughput, and the p50/p99 split.
// Pinned by a golden test — scripts grep it.
func (r Result) SummaryLine() string {
	return fmt.Sprintf("serve %-10s %-7s %3d clients  %7d ops in %8s  %9.0f ops/s  p50 %-9s p99 %-9s (reads p99 %s, writes p99 %s)",
		r.Scheme, r.Front, r.Clients, r.Ops,
		time.Duration(r.DurationNs).Round(time.Millisecond),
		r.OpsPerSec,
		fmtNs(r.Lat.P50Ns), fmtNs(r.Lat.P99Ns),
		fmtNs(r.ReadLat.P99Ns), fmtNs(r.WriteLat.P99Ns))
}

// fmtNs renders a nanosecond quantile compactly (1.23µs style).
func fmtNs(ns float64) string {
	d := time.Duration(int64(ns))
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
