package exp

import (
	"reflect"
	"strings"
	"testing"

	"deuce/internal/core"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// coldRun executes fn with warm-state reuse disabled and a cold cache, so
// its result reflects the historical per-cell behavior (fresh scheme,
// replayed warmup), then restores reuse for the caller.
func coldRun[T any](t *testing.T, fn func() (T, error)) T {
	t.Helper()
	SetWarmReuse(false)
	ResetCache()
	defer func() {
		SetWarmReuse(true)
		ResetCache()
	}()
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWarmFlipBitIdentical: flip cells that replay a shared warm stream
// must be bit-identical to cold runs across schemes, seeds and
// geometries. The first warm call synthesizes the shared stream; a
// second scheme over the same workload then replays it, and both must
// equal their cold twins.
func TestWarmFlipBitIdentical(t *testing.T) {
	profs := []string{"mcf", "libq"}
	kinds := []core.Kind{core.KindDeuce, core.KindEncrFNW, core.KindDynDeuce, core.KindINVMM}
	for _, seed := range []int64{0, 9} {
		for _, lines := range []int{64, 128} {
			rc := RunConfig{Writebacks: 400, Lines: lines, Seed: seed}
			for _, pn := range profs {
				prof, err := workload.ByName(pn)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range kinds {
					cold := coldRun(t, func() (FlipResult, error) {
						return RunFlips(prof, kind, core.Params{}, rc, true)
					})
					SetWarmReuse(true)
					ResetCache()
					ResetReuse()
					warm, err := RunFlips(prof, kind, core.Params{}, rc, true)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(cold, warm) {
						t.Errorf("%s/%s seed=%d lines=%d: replayed result diverges\n cold: %+v\n warm: %+v",
							pn, kind, seed, lines, cold, warm)
					}
				}
			}
		}
	}
	ResetCache()
}

// TestWarmReplayEveryScheme: every registered scheme, on both the flip
// and the perf topology, must produce the same result from a replayed
// warm stream as from its own cold warmup. All kinds replay one cached
// stream per topology, so a scheme that mutated the shared ops would
// also break the kinds after it.
func TestWarmReplayEveryScheme(t *testing.T) {
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 6}
	kinds := core.Kinds()
	coldFlip := make([]FlipResult, len(kinds))
	coldPerf := make([]PerfResult, len(kinds))
	for i, kind := range kinds {
		coldFlip[i] = coldRun(t, func() (FlipResult, error) {
			return RunFlips(prof, kind, core.Params{}, rc, true)
		})
		coldPerf[i] = coldRun(t, func() (PerfResult, error) {
			return RunPerf(prof, kind, core.Params{}, rc)
		})
	}
	SetWarmReuse(true)
	ResetCache()
	ResetReuse()
	t.Cleanup(ResetCache)
	for i, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			flip, err := RunFlips(prof, kind, core.Params{}, rc, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(coldFlip[i], flip) {
				t.Errorf("flip: replayed result diverges\n cold: %+v\n warm: %+v", coldFlip[i], flip)
			}
			perf, err := RunPerf(prof, kind, core.Params{}, rc)
			if err != nil {
				t.Fatal(err)
			}
			if coldPerf[i] != perf {
				t.Errorf("perf: replayed result diverges\n cold: %+v\n warm: %+v", coldPerf[i], perf)
			}
		})
	}
	if r := Reuse(); r.WarmReplays != int64(2*len(kinds)) || r.ColdWarmups != 2 {
		t.Errorf("expected %d replays of 2 streams, got %d replays and %d cold warmups",
			2*len(kinds), r.WarmReplays, r.ColdWarmups)
	}
}

// TestWarmStreamSharedAcrossKinds: two kinds over one workload must
// synthesize the warm stream once and each replay it — otherwise the
// suites above only prove the cold path against itself.
func TestWarmStreamSharedAcrossKinds(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 5}
	SetWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	ResetReuse()
	if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlips(prof, core.KindEncrFNW, core.Params{}, rc, false); err != nil {
		t.Fatal(err)
	}
	r := Reuse()
	if r.WarmReplays != 2 {
		t.Errorf("expected both cells to replay the shared warm stream, got WarmReplays=%d (ColdWarmups=%d)",
			r.WarmReplays, r.ColdWarmups)
	}
	if r.ColdWarmups != 1 {
		t.Errorf("expected exactly 1 cold warmup (the shared stream's synthesis), got %d", r.ColdWarmups)
	}
}

// TestWarmPerfBitIdentical: timed cells that replay a shared warm stream
// must match cold runs.
func TestWarmPerfBitIdentical(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.KindDeuce, core.KindEncrFNW} {
		rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 3}
		cold := coldRun(t, func() (PerfResult, error) {
			return RunPerf(prof, kind, core.Params{}, rc)
		})
		SetWarmReuse(true)
		ResetCache()
		ResetReuse()
		warm, err := RunPerf(prof, kind, core.Params{}, rc)
		if err != nil {
			t.Fatal(err)
		}
		if cold != warm {
			t.Errorf("%s: replayed perf diverges\n cold: %+v\n warm: %+v", kind, cold, warm)
		}
	}
	ResetCache()
}

// TestWarmWearBitIdentical: wear cells replay the shared streams behind
// their wrapped array and are memoized; the result must equal the cold
// one, and the wear profile must be a caller-owned copy.
func TestWarmWearBitIdentical(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 2000, Lines: 64, Seed: 2}
	cold := coldRun(t, func() (WearResult, error) {
		return RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	})
	SetWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	warm, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("memoized wear cell diverges from cold run")
	}
	again, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	again.PositionWrites[0]++ // must not corrupt the cache
	final, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.PositionWrites, final.PositionWrites) {
		t.Error("mutating a returned wear profile corrupted the cached copy")
	}
}

// TestWarmDisabledRestoresColdCounting: with reuse off, every cell must
// execute and warm up for itself — the PR-4 baseline the cold leg of
// bench-warm depends on.
func TestWarmDisabledRestoresColdCounting(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 200, Lines: 64, Seed: 8}
	SetWarmReuse(false)
	ResetCache()
	ResetReuse()
	defer func() {
		SetWarmReuse(true)
		ResetCache()
	}()
	before := RunFlipsCalls()
	for i := 0; i < 2; i++ {
		if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := RunFlipsCalls() - before; got != 2 {
		t.Errorf("reuse disabled: expected 2 executions, got %d", got)
	}
	r := Reuse()
	if r.WarmReplays != 0 {
		t.Errorf("reuse disabled but WarmReplays=%d", r.WarmReplays)
	}
	if r.ColdWarmups != 2 {
		t.Errorf("expected 2 cold warmups, got %d", r.ColdWarmups)
	}
}

// TestMeasuredReplayEveryScheme: every registered scheme on the flip
// topology, and DEUCE behind each Start-Gap mode, must produce the same
// result, per-position wear included, from the replayed measured stream as
// from its own generator. The short warmup leaves most lines untouched, so
// the measured window carries installs as well as writebacks, and soplex's
// dense writes change every word of a line. All kinds replay one cached
// stream per workload, so a scheme that mutated the shared payloads would
// also break the kinds after it.
func TestMeasuredReplayEveryScheme(t *testing.T) {
	for _, name := range []string{"mcf", "soplex"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rc := RunConfig{Writebacks: 400, Lines: 128, Warmup: 40, Seed: 11}
		rc.setDefaults()
		kinds := core.Kinds()
		modes := []wear.Mode{wear.VWLOnly, wear.HWL, wear.HWLHashed}
		coldFlip := make([]FlipResult, len(kinds))
		for i, kind := range kinds {
			coldFlip[i] = coldRun(t, func() (FlipResult, error) {
				return RunFlips(prof, kind, core.Params{}, rc, true)
			})
		}
		coldWear := make([]WearResult, len(modes))
		for i, mode := range modes {
			coldWear[i] = coldRun(t, func() (WearResult, error) {
				return RunWear(prof, core.KindDeuce, core.Params{}, mode, 1, rc)
			})
		}
		SetWarmReuse(true)
		ResetCache()
		ResetReuse()
		for i, kind := range kinds {
			got, err := RunFlips(prof, kind, core.Params{}, rc, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(coldFlip[i], got) {
				t.Errorf("%s/%s: replayed measured window diverges\n cold: %+v\n replay: %+v", name, kind, coldFlip[i], got)
			}
		}
		for i, mode := range modes {
			got, err := RunWear(prof, core.KindDeuce, core.Params{}, mode, 1, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(coldWear[i], got) {
				t.Errorf("%s/DEUCE/%v: replayed wear cell diverges from cold", name, mode)
			}
		}
		want := int64(len(kinds) + len(modes))
		if r := Reuse(); r.WarmReplays != want || r.ColdCells != 0 || r.WarmStreams != 1 || r.MeasuredStreams != 1 {
			t.Errorf("%s: want %d cells replaying 1 warm + 1 measured stream, got %+v", name, want, r)
		}
		m, err := measuredStreamFor(prof, rc)
		if err != nil {
			t.Fatal(err)
		}
		installs := 0
		for _, line := range m.lines {
			if line&installOp != 0 {
				installs++
			}
		}
		if installs == 0 || len(m.lines)-installs != rc.Writebacks || len(m.data) != len(m.lines)*workload.LineBytes {
			t.Errorf("%s: measured stream holds %d installs, %d writebacks and %d payload bytes, want >0, %d and 64 per op",
				name, installs, len(m.lines)-installs, len(m.data), rc.Writebacks)
		}
	}
	ResetCache()
}

// streamKeysCached lists the shared-stream entries in the process cache.
func streamKeysCached() []string {
	sharedCache.mu.Lock()
	defer sharedCache.mu.Unlock()
	var keys []string
	for k := range sharedCache.entries {
		if strings.HasPrefix(k, "warmStream|") || strings.HasPrefix(k, "measuredStream|") {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPlanReleasesStreams: ExecuteCells frees every stream once its last
// planned cell has run, and a consumer the plan did not know about then
// synthesizes the stream again and gets the result a cold run gives.
func TestPlanReleasesStreams(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 3}
	SetWarmReuse(true)
	ResetCache()
	ResetReuse()
	t.Cleanup(ResetCache)
	plan, err := BuildPlan([]string{"fig10", "fig14"}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ExecuteCells(nil); err != nil {
		t.Fatal(err)
	}
	// At 64 lines Figure 14's geometry is Figure 10's, so the two share
	// each workload's warm stream and differ in the measured window.
	if r := Reuse(); r.WarmStreams != 12 || r.MeasuredStreams != 24 {
		t.Errorf("fig10+fig14 should synthesize 12 warm and 24 measured streams, got %+v", r)
	}
	if left := streamKeysCached(); len(left) != 0 {
		t.Fatalf("%d streams left cached after ExecuteCells, e.g. %s", len(left), left[0])
	}

	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	wrc := fig14Config(rc)
	ResetReuse()
	// Hashed HWL is not a Figure 14 column, so this cell is not cached and
	// must replay streams the plan has already released.
	got, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.HWLHashed, fig14Psi, wrc)
	if err != nil {
		t.Fatal(err)
	}
	if r := Reuse(); r.WarmStreams != 1 || r.MeasuredStreams != 1 || r.WarmReplays != 1 {
		t.Errorf("unplanned wear cell should re-synthesize its two streams and replay them, got %+v", r)
	}
	cold := coldRun(t, func() (WearResult, error) {
		return RunWear(prof, core.KindDeuce, core.Params{}, wear.HWLHashed, fig14Psi, wrc)
	})
	if !reflect.DeepEqual(cold, got) {
		t.Error("wear cell replaying re-synthesized streams diverges from cold")
	}
}
