package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sync"
	"time"
)

// Streamer periodically snapshots a Registry and appends each snapshot
// as one JSON line to a writer — a time series of a serving run that
// scripts (or a dashboard) can tail. Records carry cumulative values, not
// deltas, so a truncated stream still ends on totals; the schema is the
// Snapshot JSON shape, pinned by a golden test.
//
// Snapshotting runs on the streamer's own goroutine: the recording hot
// path is never involved, so streaming costs the workers nothing.
type Streamer struct {
	r        *Registry
	w        io.Writer
	interval time.Duration

	// nowNs is a test hook; nil means the monotonic clock since Start.
	nowNs func() int64

	mu    sync.Mutex // serializes Emit against the ticker goroutine
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	err   error
}

// NewStreamer creates a streamer emitting one snapshot per interval to w.
// Call Start to begin and Stop to emit the final record and wait for the
// goroutine to exit.
func NewStreamer(r *Registry, w io.Writer, interval time.Duration) *Streamer {
	if interval <= 0 {
		interval = time.Second
	}
	return &Streamer{r: r, w: w, interval: interval}
}

// Start launches the periodic emitter.
func (s *Streamer) Start() {
	s.start = time.Now()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Emit()
			case <-s.stop:
				return
			}
		}
	}()
}

// Emit writes one snapshot line now. It is what the ticker goroutine
// calls each interval; tests drive it directly (with the nowNs hook) for
// a deterministic stream.
func (s *Streamer) Emit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	snap := s.r.Snapshot()
	snap.TMs = s.sinceMs()
	blob, err := json.Marshal(snap)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(blob, '\n')); err != nil {
		s.err = fmt.Errorf("obs: stream write: %w", err)
	}
}

// sinceMs returns milliseconds since Start (0 before Start) under s.mu.
func (s *Streamer) sinceMs() int64 {
	if s.nowNs != nil {
		return s.nowNs() / int64(time.Millisecond)
	}
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start).Milliseconds()
}

// Stop halts the ticker, emits one final snapshot line (the run's
// cumulative totals), and returns the first write error, if any.
func (s *Streamer) Stop() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
		s.stop, s.done = nil, nil
	}
	s.Emit()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// expvarMu serializes publish/rebind against expvar's global namespace.
var expvarMu sync.Mutex

// Expvar publishes the registry under the given expvar name, so a debug
// HTTP endpoint (see ServeDebug) exposes a live snapshot at /debug/vars:
// each scrape renders a fresh merged snapshot (counters, gauges, and
// p50/p99-style quantiles) as JSON. Republishing an existing name rebinds
// it to this registry — a harness running one scheme after another can
// reuse a stable name.
func (r *Registry) Expvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if v := expvar.Get(name); v != nil {
		if rv, ok := v.(*registryVar); ok {
			rv.mu.Lock()
			rv.r = r
			rv.mu.Unlock()
			return
		}
		panic(fmt.Sprintf("obs: expvar name %q already taken by a non-registry var", name))
	}
	expvar.Publish(name, &registryVar{r: r})
}

// registryVar adapts a Registry to expvar.Var with rebind support.
type registryVar struct {
	mu sync.Mutex
	r  *Registry
}

// String renders the current merged snapshot as JSON for /debug/vars.
func (v *registryVar) String() string {
	v.mu.Lock()
	r := v.r
	v.mu.Unlock()
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(blob)
}
