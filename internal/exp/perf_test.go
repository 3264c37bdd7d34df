package exp

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"deuce/internal/core"
	"deuce/internal/trace"
	"deuce/internal/workload"
)

// TestPerfGridSharedAcrossFigures is the cell-count regression test for
// the duplicated-grid bug: fig16 and fig17 request perfGrid with the
// identical columns and RunConfig, so gating both must execute the
// 12-workload x 4-cell timed grid exactly once — 48 RunPerf calls, not
// 96. A second pass over either figure must execute nothing.
func TestPerfGridSharedAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real timed grids")
	}
	ResetCache()
	defer ResetCache()
	rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 1}

	e16, err := ByID("fig16")
	if err != nil {
		t.Fatal(err)
	}
	e17, err := ByID("fig17")
	if err != nil {
		t.Fatal(err)
	}

	before := RunPerfCalls()
	t16, err := e16.RunTable(rc)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := int64(len(workload.SPEC2006()) * (len(perfCols) + 1))
	if got := RunPerfCalls() - before; got != wantCells {
		t.Fatalf("fig16 executed %d RunPerf cells, want %d", got, wantCells)
	}

	t17, err := e17.RunTable(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := RunPerfCalls() - before; got != wantCells {
		t.Fatalf("fig16+fig17 executed %d RunPerf cells, want %d (fig17 must reuse fig16's grid)", got, wantCells)
	}

	// Re-running either figure at the same scale serves the table cache.
	t16b, err := e16.RunTable(rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e17.RunTable(rc); err != nil {
		t.Fatal(err)
	}
	if got := RunPerfCalls() - before; got != wantCells {
		t.Fatalf("repeat sweep executed %d RunPerf cells, want %d (tables must be cached)", got, wantCells)
	}
	if !reflect.DeepEqual(t16, t16b) {
		t.Error("cached fig16 table differs from the live run")
	}
	if t16.ID != "fig16" || t17.ID != "fig17" {
		t.Errorf("table IDs = %q/%q", t16.ID, t17.ID)
	}

	// A different scale is a different grid: it must execute for real.
	if _, err := e16.RunTable(RunConfig{Writebacks: 400, Lines: 64, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if got := RunPerfCalls() - before; got != 2*wantCells {
		t.Fatalf("changed seed executed %d total cells, want %d (no false cache hits)", got, 2*wantCells)
	}
}

// TestFlipGridCached pins the same reuse for the flip grids: a repeated
// fig15 sweep at one scale executes its 48 RunFlips cells once.
func TestFlipGridCached(t *testing.T) {
	ResetCache()
	defer ResetCache()
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 1}
	e15, err := ByID("fig15")
	if err != nil {
		t.Fatal(err)
	}
	before := RunFlipsCalls()
	first, err := e15.RunTable(rc)
	if err != nil {
		t.Fatal(err)
	}
	ran := RunFlipsCalls() - before
	if want := int64(len(workload.SPEC2006()) * 4); ran != want {
		t.Fatalf("fig15 executed %d RunFlips cells, want %d", ran, want)
	}
	again, err := e15.RunTable(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := RunFlipsCalls() - before; got != ran {
		t.Fatalf("repeat fig15 executed %d extra cells, want 0", got-ran)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached fig15 table differs from the live run")
	}
}

// TestRunPerfZeroWBPKI: the event budget divides by WBPKI; a degenerate
// profile must produce a descriptive error, not +Inf flowing into an
// undefined float→int conversion.
func TestRunPerfZeroWBPKI(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, wbpki := range []float64{0, -1} {
		prof.WBPKI = wbpki
		_, err := RunPerf(prof, core.KindEncrDCW, core.Params{}, tinyRC())
		if err == nil {
			t.Fatalf("WBPKI=%g accepted", wbpki)
		}
		if !strings.Contains(err.Error(), "WBPKI") {
			t.Errorf("WBPKI=%g: error %q does not name WBPKI", wbpki, err)
		}
	}
}

// flakySource errors for its first failFor calls, then yields writebacks
// forever, counting successful events handed out.
type flakySource struct {
	calls, failFor, served int
}

func (f *flakySource) Next() (trace.Event, error) {
	f.calls++
	if f.calls <= f.failFor {
		return trace.Event{}, errors.New("transient device error")
	}
	f.served++
	return trace.Event{Kind: trace.Writeback}, nil
}

// TestLimitSourceChargesOnlySuccess: an inner-source error must not
// consume the event budget, or the timed window under-counts the events
// it was sized in.
func TestLimitSourceChargesOnlySuccess(t *testing.T) {
	inner := &flakySource{failFor: 3}
	src := &limitSource{inner: inner, remaining: 5}

	for i := 0; i < 3; i++ {
		if _, err := src.Next(); err == nil {
			t.Fatal("inner error not propagated")
		}
	}
	if src.remaining != 5 {
		t.Fatalf("after 3 inner errors remaining = %d, want 5 (errors must not consume budget)", src.remaining)
	}
	for i := 0; i < 5; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("budget exhausted but got %v, want io.EOF", err)
	}
	if inner.served != 5 {
		t.Fatalf("inner served %d events, want exactly the 5-event budget", inner.served)
	}
}

// BenchmarkTimedCell measures one timed perf-grid cell (RunPerf, the unit
// the fidelity gate's 48-cell grid repeats) at the CI gate scale (6000
// writebacks, 512 lines).
//
// Every iteration runs the cell for real, warmup included: warm-state
// reuse is off for the benchmark, so neither the cell cache nor a cached
// warm stream can serve it, and the benchmark fails unless RunPerf
// executed exactly b.N times.
func BenchmarkTimedCell(b *testing.B) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	prev := warmReuseEnabled()
	SetWarmReuse(false)
	defer SetWarmReuse(prev)
	rc := RunConfig{Writebacks: 6000, Lines: 512, Seed: 1}
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
}

// TestTimedEventStreamSchemeIndependent: the workload events a timed
// cell's timing model pulls — kind, line, cpu, gap and data, in order —
// are the same whichever scheme it times, with and without write pausing
// and a counter cache. That is what would let timed cells replay one
// recorded event stream the way flip cells replay their measured window.
func TestTimedEventStreamSchemeIndependent(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { perfEventTap = nil })
	for _, pause := range []bool{false, true} {
		for _, ccb := range []int{0, 8} {
			rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 7, WritePausing: pause, CounterCacheBlocks: ccb}
			rc.setDefaults()
			budget := int(float64(rc.Writebacks) * (prof.MPKI + prof.WBPKI) / prof.WBPKI)
			var streams [][]trace.Event
			for _, kind := range []core.Kind{core.KindEncrDCW, core.KindDeuce} {
				var events []trace.Event
				perfEventTap = func(e trace.Event) {
					e.Data = append([]byte(nil), e.Data...)
					events = append(events, e)
				}
				if _, err := runPerfCell(prof, kind, core.Params{}, rc); err != nil {
					t.Fatal(err)
				}
				if len(events) != budget {
					t.Fatalf("pause=%t ccb=%d %s: timing model pulled %d events, budget is %d", pause, ccb, kind, len(events), budget)
				}
				streams = append(streams, events)
			}
			if !reflect.DeepEqual(streams[0], streams[1]) {
				t.Errorf("pause=%t ccb=%d: Encr_DCW and DEUCE see different event streams", pause, ccb)
			}
		}
	}
}
