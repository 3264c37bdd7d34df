package exp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/pcmdev"
)

// TestGridCacheSingleFlight: concurrent callers of one key must share a
// single computation, blocking on it rather than duplicating work.
func TestGridCacheSingleFlight(t *testing.T) {
	c := NewGridCache()
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	results := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("k", func() (interface{}, error) {
				<-gate // hold every other caller in Do until all goroutines exist
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times for one key, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %v, want 42", i, v)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
}

// TestGridCacheErrorsCached: experiment runs are deterministic in their
// key, so an error is a result like any other — recomputing cannot
// change it.
func TestGridCacheErrorsCached(t *testing.T) {
	c := NewGridCache()
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Do("bad", func() (interface{}, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("error path computed %d times, want 1", calls)
	}
	c.Reset()
	if _, err := c.Do("bad", func() (interface{}, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("Reset did not drop the entry (calls = %d)", calls)
	}
}

// TestRunConfigKeyDefaults: a zero RunConfig and one spelling out the
// defaults are the same run, so they must share a cache key; any
// result-affecting change must not.
func TestRunConfigKeyDefaults(t *testing.T) {
	zero := RunConfig{}.key()
	spelled := RunConfig{Writebacks: 30000, Lines: 2048, Warmup: 4096, Seed: 0}.key()
	if zero != spelled {
		t.Errorf("defaulted keys differ:\n%s\n%s", zero, spelled)
	}
	distinct := []RunConfig{
		{Seed: 1},
		{Writebacks: 6000},
		{Lines: 512},
		{WritePausing: true},
		{ReadLatencyNs: 120},
		{CounterCacheBlocks: 32},
	}
	seen := map[string]bool{zero: true}
	for _, rc := range distinct {
		k := rc.key()
		if seen[k] {
			t.Errorf("config %+v collides with an earlier key", rc)
		}
		seen[k] = true
	}
	// Observability hooks must not change the key: they never change
	// measured values.
	hooked := RunConfig{Progress: obs.NewProgress(0)}
	if hooked.key() != zero {
		t.Error("Progress hook changed the cache key")
	}
}

// TestParamsKeyUncacheable: params carrying inputs with no canonical
// encoding must refuse caching rather than risk a false hit.
func TestParamsKeyUncacheable(t *testing.T) {
	if _, ok := paramsKey(core.Params{}); !ok {
		t.Error("zero Params should be cacheable")
	}
	withArray := core.Params{MakeArray: func(cfg pcmdev.Config) (pcmdev.Array, error) { return nil, nil }}
	if _, ok := paramsKey(withArray); ok {
		t.Error("MakeArray params accepted into a cache key")
	}
	if _, ok := colsKey([]cell1{{label: "x", kind: core.KindDeuce, params: withArray}}); ok {
		t.Error("colsKey accepted an uncacheable column")
	}
	a, _ := paramsKey(core.Params{WordBytes: 2})
	b, _ := paramsKey(core.Params{WordBytes: 4})
	if a == b {
		t.Error("WordBytes does not reach the params key")
	}
}

// TestRunTableCacheIsolation: a caller mutating its returned table must
// not corrupt the cached copy served to the next caller.
func TestRunTableCacheIsolation(t *testing.T) {
	ResetCache()
	defer ResetCache()
	runs := 0
	e := Experiment{ID: "cache-isolation-test", Run: func(rc RunConfig) (*Table, error) {
		runs++
		tb := &Table{Title: "t", Columns: []string{"K", "V"}}
		tb.AddRow("row", 1.0)
		tb.SetValue("m", "s", 3.5)
		return tb, nil
	}}
	first, err := e.RunTable(RunConfig{Writebacks: 100, Lines: 32})
	if err != nil {
		t.Fatal(err)
	}
	first.Rows[0][0] = "clobbered"
	first.Values["m/s"] = -1

	second, err := e.RunTable(RunConfig{Writebacks: 100, Lines: 32})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("experiment ran %d times, want 1", runs)
	}
	if second.Rows[0][0] != "row" || second.Values["m/s"] != 3.5 {
		t.Errorf("cached table was mutated through a caller's copy: %+v", second)
	}

	// A config carrying a per-run hook must bypass the table cache.
	if _, err := e.RunTable(RunConfig{Writebacks: 100, Lines: 32, Metrics: obs.NewRegistry(1)}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("hooked config served from cache (runs = %d, want 2)", runs)
	}
}

// TestGridCacheReleaseWhileInFlight: releasing a key whose computation is
// in flight must not hand that computation's result to lookups made after
// the release, nor take it from the caller already computing; and
// concurrent Do and Release on one key must be race-free (run under
// -race).
func TestGridCacheReleaseWhileInFlight(t *testing.T) {
	c := NewGridCache()
	started, finish := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.Do("k", func() (interface{}, error) {
			close(started)
			<-finish
			return 1, nil
		})
		if err != nil || v != 1 {
			t.Errorf("in-flight caller got %v, %v; want 1", v, err)
		}
	}()
	<-started
	c.Release("k", "absent")
	v, err := c.Do("k", func() (interface{}, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Errorf("Do after Release got %v, %v; want a fresh computation (2)", v, err)
	}
	close(finish)
	wg.Wait()

	var computes atomic.Int64
	stop := make(chan struct{})
	var releaser sync.WaitGroup
	releaser.Add(1)
	go func() {
		defer releaser.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Release("h")
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v, err := c.Do("h", func() (interface{}, error) {
					computes.Add(1)
					return 7, nil
				})
				if err != nil || v != 7 {
					t.Errorf("Do under concurrent Release got %v, %v; want 7", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	releaser.Wait()
	if computes.Load() < 1 {
		t.Error("no computation ran")
	}
}
