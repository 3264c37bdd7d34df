package exp

import (
	"math"
	"testing"

	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/pcmdev"
	"deuce/internal/workload"
)

// A single RunFlips with every observability hook attached must produce a
// trace covering exactly the measured window, periodic heatmap rows plus a
// final one, and per-writeback metric histograms that agree with the
// result: same count, and means equal to the reported slot average and
// flip fraction. Equal means pin the window too — warmup writes leaking
// into the histograms would shift them away from the measured stats.
func TestRunFlipsObservability(t *testing.T) {
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	const lineBits = pcmdev.DefaultLineBytes * 8
	for _, kind := range []core.Kind{core.KindDeuce, core.KindEncrFNW} {
		tr := obs.NewTrace(4096, 1)
		hm := obs.NewHeatmap()
		reg := obs.NewRegistry(1)
		rc := RunConfig{
			Writebacks:   250,
			Lines:        64,
			Seed:         1,
			Trace:        tr,
			Heatmap:      hm,
			HeatmapEvery: 100,
			Metrics:      reg,
		}
		res, err := RunFlips(prof, kind, core.Params{}, rc, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Writes != 250 {
			t.Fatalf("%s: measured %d writes, want 250", kind, res.Writes)
		}
		// Unsampled trace over the measured window only: warmup events are
		// dropped at the stats-reset boundary.
		if tr.Seen() != 250 || tr.Len() != 250 {
			t.Fatalf("%s: trace seen=%d len=%d, want 250/250", kind, tr.Seen(), tr.Len())
		}
		// Rows at writeback 100, 200 and the final row at 250.
		if hm.Rows() != 3 {
			t.Fatalf("%s: heatmap rows = %d, want 3", kind, hm.Rows())
		}
		if len(hm.Last()) == 0 {
			t.Fatalf("%s: heatmap snapshot has no lines", kind)
		}
		snap := reg.Snapshot()
		for _, tc := range []struct {
			name string
			mean float64
		}{
			{"write_slots", res.SlotAvg},
			{"write_flips", res.FlipFrac * lineBits},
		} {
			q, ok := snap.Lat[tc.name]
			if !ok {
				t.Fatalf("%s: histogram %q missing from registry", kind, tc.name)
			}
			if q.N != res.Writes {
				t.Fatalf("%s: histogram %q holds %d observations, want %d", kind, tc.name, q.N, res.Writes)
			}
			if math.Abs(q.MeanNs-tc.mean) > 1e-9 {
				t.Errorf("%s: histogram %q mean = %v, want %v", kind, tc.name, q.MeanNs, tc.mean)
			}
		}
	}
}

// Heatmap rows must not duplicate the final mark when the writeback count
// is an exact multiple of the snapshot period.
func TestRunFlipsHeatmapExactMultiple(t *testing.T) {
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	hm := obs.NewHeatmap()
	rc := RunConfig{Writebacks: 200, Lines: 64, Seed: 1, Heatmap: hm, HeatmapEvery: 100}
	if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
		t.Fatal(err)
	}
	if hm.Rows() != 2 {
		t.Fatalf("heatmap rows = %d, want 2 (100, 200 — no duplicate final row)", hm.Rows())
	}
}

// Grid sweeps report per-cell progress through the pool and must drop the
// single-writer hooks (sharing a Trace across concurrent cells would race).
func TestRunGridProgress(t *testing.T) {
	profs := []workload.Profile{}
	for _, name := range []string{"libq", "mcf"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	cfgs := []cell1{
		{label: "deuce", kind: core.KindDeuce},
		{label: "dcw", kind: core.KindEncrDCW},
	}
	tr := obs.NewTrace(64, 1)
	prog := obs.NewProgress(0)
	rc := RunConfig{Writebacks: 50, Lines: 32, Seed: 1, Trace: tr, Progress: prog}
	grid, err := runGrid(profs, cfgs, rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(grid), len(grid[0]))
	}
	s := prog.Snapshot()
	if s.Total != 4 || s.Done != 4 {
		t.Fatalf("progress %d/%d, want 4/4", s.Done, s.Total)
	}
	if tr.Seen() != 0 {
		t.Fatalf("grid sweep leaked %d events into a shared trace", tr.Seen())
	}
}
