package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deuce/internal/backend"
	"deuce/internal/core"
	"deuce/internal/exp"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// Each traced replay must compute exactly what the untraced call computes
// for the same cell or op stream; otherwise its layer times describe some
// other work.

func TestWearReplayMatchesRunWear(t *testing.T) {
	exp.ResetCache()
	for _, mode := range []wear.Mode{wear.VWLOnly, wear.HWL} {
		c := cellSpec{prof: workload.SPEC2006()[0], kind: core.KindDeuce, mode: mode, psi: 1,
			rc: exp.RunConfig{Writebacks: 3000, Warmup: 256, Lines: 64, Seed: 7}}
		tr, err := replayWear(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exp.RunWear(c.prof, c.kind, core.Params{}, c.mode, c.psi, c.rc)
		if err != nil {
			t.Fatal(err)
		}
		if !equalFlips(tr.res, want.FlipResult) {
			t.Errorf("mode %v: traced %+v, untraced %+v", mode, tr.res, want.FlipResult)
		}
		if tr.array.write.calls == 0 || tr.gen.calls != 3000 {
			t.Errorf("mode %v: timed %d array writes and %d generator calls", mode, tr.array.write.calls, tr.gen.calls)
		}
	}
}

func TestPerfReplayMatchesRunPerf(t *testing.T) {
	exp.ResetCache()
	for _, c := range perfCells(2000, 128, 3)[4:8] {
		tr, err := replayPerf(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exp.RunPerf(c.prof, c.kind, core.Params{}, c.rc)
		if err != nil {
			t.Fatal(err)
		}
		if tr.res != want {
			t.Errorf("%s/%s: traced %+v, untraced %+v", c.prof.Name, c.kind, tr.res, want)
		}
		if tr.src.next.calls == 0 || tr.coster.cost.calls != int64(want.Timing.Writes) {
			t.Errorf("%s/%s: %d source calls, %d coster calls for %d writes", c.prof.Name, c.kind,
				tr.src.next.calls, tr.coster.cost.calls, want.Timing.Writes)
		}
	}
}

func TestServeLineReplayMatchesMemory(t *testing.T) {
	s := setupServe(5, 3000)
	var tl tally
	if _, err := lineLayers(s, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%d of %d checks failed: %v", tl.failed, tl.attempted, tl.notes)
	}
}

func TestServeProbeChecksEveryReply(t *testing.T) {
	var tl tally
	m, err := serveLayers(config{seed: 2}, false, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted < 2*25000 {
		t.Fatalf("%d of %d checks failed: %v", tl.failed, tl.attempted, tl.notes)
	}
	if m["servefront.max_shard_share"].Value <= 0 {
		t.Errorf("max shard share %v", m["servefront.max_shard_share"])
	}
}

func TestDurableReplayMatchesMemory(t *testing.T) {
	var tl tally
	m, err := durableLayers(config{seed: 4, dir: t.TempDir()}, false, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%d of %d checks failed: %v", tl.failed, tl.attempted, tl.notes)
	}
	if m["backend.pager"].Value != 1 || m["backend.sync_calls"].Value == 0 {
		t.Errorf("pager %v, sync calls %v", m["backend.pager"], m["backend.sync_calls"])
	}
}

// The backend decorator must keep pcmdev's mmap fast path, or the traced
// durable run would time pread/pwrite instead of the product path.
func TestBackendDecoratorForwardsPager(t *testing.T) {
	var bt backendTimes
	open := func(region string, pages, size int) (backend.Backend, error) {
		return backend.OpenFile(filepath.Join(t.TempDir(), region+".pg"), pages, size)
	}
	be, err := backendMaker(open, &bt)(core.RegionArray, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	inner, err := open("plain", 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if (backend.AsPager(be) != nil) != (backend.AsPager(inner) != nil) || bt.pager != (backend.AsPager(inner) != nil) {
		t.Fatalf("decorated pager %v, plain pager %v, recorded %v", backend.AsPager(be) != nil, backend.AsPager(inner) != nil, bt.pager)
	}
	if err := be.Sync(); err != nil || bt.sync.calls != 1 {
		t.Fatalf("sync: %v, %d calls timed", err, bt.sync.calls)
	}
}

// BENCHMARK.json must list exactly the per-layer metrics a traced run
// reports, with the same units.
func TestBenchmarkJSONListsEveryLayer(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if got := doc.PerLayer[i]; got.Name != l.name || got.Unit != l.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, got.Name, got.Unit, l.name, l.unit)
		}
	}
}
