package main

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"
	"time"

	"deuce/internal/core"
	"deuce/internal/exp"
	"deuce/internal/fidelity"
	"deuce/internal/obs/span"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// checkSpec is a fidelity gate over a set of experiments at one scale:
// the gate and timed workloads are both one.
type checkSpec struct {
	name              string
	ids               []string // experiments; nil checks every expectation
	writebacks, lines int
}

var (
	// gateSpec is the CI-scale gate ROADMAP aim 1 names, with the ext-*
	// durability drills: 58 expectations.
	gateSpec = checkSpec{name: "gate", writebacks: 6000, lines: 512}
	// timedSpec is the 48-cell timed grid behind figures 16 and 17, where
	// the timing event loop takes a third of the CPU.
	timedSpec = checkSpec{name: "timed", ids: []string{"fig16", "fig17"}, writebacks: 30000, lines: 512}
)

// checkRun is a set-up check: its expectations and the number of unique
// cells its plan says must execute.
type checkRun struct {
	spec      checkSpec
	rc        exp.RunConfig
	exps      []fidelity.Expectation
	planCells int64
}

func setupCheck(spec checkSpec, seed int64) (checkRun, error) {
	exps := append(fidelity.Expectations(), fidelity.ExtensionExpectations()...)
	if spec.ids != nil {
		exps = fidelity.Filter(exps, spec.ids)
	}
	rc := exp.RunConfig{Writebacks: spec.writebacks, Lines: spec.lines, Seed: seed}
	plan, err := exp.BuildPlan(fidelity.ExperimentIDs(exps), rc)
	if err != nil {
		return checkRun{}, err
	}
	return checkRun{spec: spec, rc: rc, exps: exps, planCells: int64(plan.Stats().Cells)}, nil
}

// checkOut is one executed check.
type checkOut struct {
	sample
	speedup  float64          // fig16 DEUCE geomean speedup over Encr
	lats     map[string]int64 // host time per cell after warmup, ns, by cell identity
	cellsRun int64
	tree     *span.Tree
	hitFrac  float64
}

// run executes the check once with cold caches. The program's own span
// tracer stays on: cell spans are the only outside view of per-cell
// latency, and its overhead is held under 2% by BENCH_spans.json. also,
// when non-nil, runs under the same tracer after the timed check.
func (r checkRun) run(t *tally, also func(exp.RunConfig) error) (checkOut, error) {
	exp.ResetCache()
	rc := r.rc
	rc.Spans = span.New()
	before := exp.RunFlipsCalls() + exp.RunPerfCalls()
	start := time.Now()
	report, tables, err := fidelity.Check(rc, r.exps)
	wall := time.Since(start).Seconds()
	if err != nil {
		return checkOut{}, err
	}
	if also != nil {
		if err := also(rc); err != nil {
			return checkOut{}, err
		}
	}
	out := checkOut{cellsRun: exp.RunFlipsCalls() + exp.RunPerfCalls() - before, tree: rc.Spans.Snapshot()}
	hits, misses := exp.CacheStats()
	out.hitFrac = float64(hits) / float64(hits+misses)
	for _, v := range report.Verdicts {
		t.check(v.Pass, "%s: %s", v.Name(), v.Detail)
	}
	for _, m := range report.Missing {
		t.check(false, "%s: no measured value", m.Name())
	}
	// A cell served from a cache would time a lookup, not a measurement.
	t.check(out.cellsRun >= r.planCells, "%s executed %d cells, its plan has %d unique", r.spec.name, out.cellsRun, r.planCells)
	t.notes = append(t.notes, fmt.Sprintf("%s executed %d cells, its plan has %d unique", r.spec.name, out.cellsRun, r.planCells))

	// A cell's warmup may wait on another cell's shared warm state, so its
	// length depends on which cell got there first; the measured window
	// after it is the cell's own work.
	out.lats = make(map[string]int64)
	walkCells(out.tree, func(n *span.Node, kind string) {
		out.lats[kind+"|"+n.Attr("key")+"|"+n.Attr("workload")+"|"+n.Attr("scheme")] += n.DurNs - warmupNs(n)
	})
	if len(out.lats) == 0 {
		return checkOut{}, fmt.Errorf("%s recorded no cell spans", r.spec.name)
	}
	out.wall, out.opsPerS = wall, float64(out.cellsRun)/wall

	fig16 := tables["fig16"]
	if fig16 == nil {
		return checkOut{}, fmt.Errorf("%s produced no fig16 table", r.spec.name)
	}
	out.speedup = fig16.Values["speedup/DEUCE"]
	if fig10 := tables["fig10"]; fig10 != nil {
		out.simFlip = 100 * fig10.Values["flips/DEUCE"]
	} else if out.simFlip, err = timedFlipPct(r.rc); err != nil {
		return checkOut{}, err
	}
	return out, nil
}

// timedFlipPct is DEUCE's cells programmed per timed writeback over the 12
// workloads, as % of the line's data cells. The cells were just measured, so
// these calls are cache reads.
func timedFlipPct(rc exp.RunConfig) (float64, error) {
	var sum float64
	profs := workload.SPEC2006()
	for _, p := range profs {
		r, err := exp.RunPerf(p, core.KindDeuce, core.Params{}, rc)
		if err != nil {
			return 0, err
		}
		sum += float64(r.BitFlips) / float64(r.Timing.Writes) / lineBits
	}
	return 100 * sum / float64(len(profs)), nil
}

// warmupNs sums the warmup spans under n.
func warmupNs(n *span.Node) int64 {
	var ns int64
	for _, c := range n.Children {
		if c.Name == "warmup" {
			ns += c.DurNs
		} else {
			ns += warmupNs(c)
		}
	}
	return ns
}

// walkCells visits every top-level cell span (a cell/flip nested in a
// cell/wear is part of the wear cell) with its kind: wear, flip or perf.
func walkCells(tree *span.Tree, fn func(n *span.Node, kind string)) {
	var rec func(n *span.Node)
	rec = func(n *span.Node) {
		if kind, ok := strings.CutPrefix(n.Name, "cell/"); ok {
			fn(n, kind)
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range tree.Roots {
		rec(r)
	}
}

func measureGate(cfg config) (map[string]metric, tally, error)  { return measureCheck(gateSpec, cfg) }
func measureTimed(cfg config) (map[string]metric, tally, error) { return measureCheck(timedSpec, cfg) }

func measureCheck(spec checkSpec, cfg config) (map[string]metric, tally, error) {
	var t tally
	r, setupS, err := repeatSetup(41, func() (checkRun, error) { return setupCheck(spec, cfg.seed) })
	if err != nil {
		return nil, t, err
	}
	var speedups []float64
	lats := make(map[string][]float64)
	samples, err := measureFor(cfg.seconds, func() (sample, error) {
		out, err := r.run(&t, nil)
		speedups = append(speedups, out.speedup)
		for k, ns := range out.lats {
			lats[k] = append(lats[k], float64(ns))
		}
		return out.sample, err
	})
	if err != nil {
		return nil, t, err
	}
	checkExact(&t, spec.name, samples)
	for _, s := range speedups[1:] {
		t.check(s == speedups[0], "%s: sim_speedup %v then %v within one run", spec.name, speedups[0], s)
	}
	t.note("sim_speedup", speedups[0], "x")
	m := endToEnd(samples, setupS, &t)
	// A unit holds few cells (48 on timed), so its p99 is nearly its
	// slowest cell, and one slow instance of it would decide the figure:
	// take each cell's median over the units first.
	perCell := make([]int64, 0, len(lats))
	for _, ns := range lats {
		perCell = append(perCell, int64(median(ns)))
	}
	p50, p99 := latencyQuantiles(perCell)
	m["p50_us"], m["p99_us"] = metric{p50, "us"}, metric{p99, "us"}
	return m, t, nil
}

// checkLayers runs one check with spans and reports the exp layer, plus
// the gc figures of the run for the workload that owns it.
func checkLayers(spec checkSpec, seed int64, t *tally, also func(exp.RunConfig) error) (map[string]metric, float64, error) {
	r, err := setupCheck(spec, seed)
	if err != nil {
		return nil, 0, err
	}
	gc := startGC()
	out, err := r.run(t, also)
	if err != nil {
		return nil, 0, err
	}
	allocs, pause := gc.since()
	var wearNs, flipNs, perfNs, warmNs int64
	walkCells(out.tree, func(n *span.Node, kind string) {
		switch kind {
		case "wear":
			wearNs += n.DurNs
		case "flip":
			flipNs += n.DurNs
		case "perf":
			perfNs += n.DurNs
		}
	})
	idle := 0.0
	out.tree.Walk(func(n *span.Node) {
		switch n.Name {
		case "warmup":
			warmNs += n.DurNs
		case "plan.execute":
			var busy int64
			for _, c := range n.Children {
				busy += c.DurNs
			}
			idle = 1 - float64(busy)/(float64(n.DurNs)*float64(runtime.GOMAXPROCS(0)))
		}
	})
	return map[string]metric{
		"exp.cells_run":      {float64(out.cellsRun), "count"},
		"exp.cache_hit_frac": {out.hitFrac, "frac"},
		"exp.cell_wear_s":    {float64(wearNs) / 1e9, "s"},
		"exp.cell_flip_s":    {float64(flipNs) / 1e9, "s"},
		"exp.cell_perf_s":    {float64(perfNs) / 1e9, "s"},
		"exp.warmup_s":       {float64(warmNs) / 1e9, "s"},
		"exp.pool_idle_frac": {idle, "frac"},
		"gc.allocs_per_op":   {allocs / float64(out.cellsRun), "count"},
		"gc.pause_s":         {pause, "s"},
	}, out.wall, nil
}

// fig14Cells are the gate's Start-Gap wear cells replayed by the traced
// run: DEUCE without HWL on every workload, at Figure 14's geometry.
func fig14Cells(ciWritebacks, ciLines int, seed int64) []cellSpec {
	var out []cellSpec
	for _, p := range workload.SPEC2006() {
		out = append(out, cellSpec{prof: p, kind: core.KindDeuce, mode: wear.VWLOnly, psi: 1,
			rc: exp.RunConfig{Writebacks: max(40000, ciWritebacks), Warmup: 2 * ciLines, Lines: 64, Seed: seed}})
	}
	return out
}

// perfCells are the timed grid's cells: every workload on the encrypted
// baseline and the three compared schemes.
func perfCells(writebacks, lines int, seed int64) []cellSpec {
	var out []cellSpec
	for _, p := range workload.SPEC2006() {
		for _, k := range []core.Kind{core.KindEncrDCW, core.KindEncrFNW, core.KindDeuce, core.KindPlainFNW} {
			out = append(out, cellSpec{prof: p, kind: k, rc: exp.RunConfig{Writebacks: writebacks, Lines: lines, Warmup: 2 * lines, Seed: seed}})
		}
	}
	return out
}

// parallel runs fn over n items on GOMAXPROCS goroutines and returns the
// wall time and the first error.
func parallel(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), first
}

// wearLayers replays wear cells through traced arrays, checks each against
// the untraced exp.RunWear, and reports the generator, scheme and array
// layers. The returned ratio is traced over untraced wall time.
func wearLayers(cells []cellSpec, t *tally) (map[string]metric, float64, error) {
	exp.ResetCache()
	plain := make([]exp.WearResult, len(cells))
	traced := make([]wearTrace, len(cells))
	plainNs, tracedNs := make([]int64, len(cells)), make([]int64, len(cells))
	// Each cell runs untraced and then traced on the same worker, so both
	// sides of the overhead ratio see the same load.
	_, err := parallel(len(cells), func(i int) error {
		c := cells[i]
		start := time.Now()
		var err error
		if plain[i], err = exp.RunWear(c.prof, c.kind, core.Params{}, c.mode, c.psi, c.rc); err != nil {
			return err
		}
		plainNs[i] = int64(time.Since(start))
		start = time.Now()
		traced[i], err = replayWear(c)
		tracedNs[i] = int64(time.Since(start))
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var agg wearTrace
	var plainSum, tracedSum int64
	for i, tr := range traced {
		t.check(equalFlips(tr.res, plain[i].FlipResult), "traced wear replay of %s/%s differs from exp.RunWear", cells[i].prof.Name, cells[i].kind)
		agg.add(tr)
		plainSum += plainNs[i]
		tracedSum += tracedNs[i]
	}
	return agg.metrics(), float64(tracedSum) / float64(plainSum), nil
}

// perfLayers replays timed cells through a traced source, coster and
// array, checks each against the untraced exp.RunPerf, and reports the
// generator, timing loop, scheme and array layers with the replay's wall
// time.
func perfLayers(cells []cellSpec, t *tally) (map[string]metric, float64, error) {
	traced := make([]perfTrace, len(cells))
	tracedS, err := parallel(len(cells), func(i int) error {
		var err error
		traced[i], err = replayPerf(cells[i])
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var agg perfTrace
	for i, tr := range traced {
		c := cells[i]
		want, err := exp.RunPerf(c.prof, c.kind, core.Params{}, c.rc)
		if err != nil {
			return nil, 0, err
		}
		t.check(tr.res == want, "traced timed replay of %s/%s differs from exp.RunPerf", c.prof.Name, c.kind)
		agg.add(tr)
	}
	return agg.metrics(), tracedS, nil
}

// gateLayers is the gate's traced replay. full runs the CI-scale gate and
// all 12 DEUCE wear cells; otherwise it is a short probe of the same
// layers for another workload's traced run.
func gateLayers(cfg config, full bool, t *tally) (map[string]metric, error) {
	spec, cells := checkSpec{name: "gate probe", ids: []string{"fig10", "fig16"}, writebacks: 1000, lines: 128}, fig14Cells(2000, 64, cfg.seed)[:2]
	if full {
		spec, cells = gateSpec, fig14Cells(gateSpec.writebacks, gateSpec.lines, cfg.seed)
	}
	var also func(exp.RunConfig) error
	if !full {
		// The probe's experiments hold no wear cell; add one.
		also = func(rc exp.RunConfig) error {
			c := cells[0]
			rc.Writebacks, rc.Lines, rc.Warmup = c.rc.Writebacks, c.rc.Lines, c.rc.Warmup
			_, err := exp.RunWear(c.prof, c.kind, core.Params{}, c.mode, c.psi, rc)
			return err
		}
	}
	m, _, err := checkLayers(spec, cfg.seed, &tally{}, also) // verdicts are checked by the untraced run
	if err != nil {
		return nil, err
	}
	wm, ratio, err := wearLayers(cells, t)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, wm)
	m["trace.overhead"] = metric{ratio, "x"}
	return m, nil
}

// timedLayers is the timed grid's traced replay: every cell at full scale
// against the untraced grid's wall time, or one workload's four cells as a
// probe.
func timedLayers(cfg config, full bool, t *tally) (map[string]metric, error) {
	if !full {
		cells := perfCells(3000, 128, cfg.seed)[:4]
		m, _, err := perfLayers(cells, t)
		return m, err
	}
	cm, plainS, err := checkLayers(timedSpec, cfg.seed, &tally{}, nil)
	if err != nil {
		return nil, err
	}
	// The exp layer is reported from the gate, which runs every cell kind;
	// this check contributes only its gc figures.
	m := map[string]metric{"gc.allocs_per_op": cm["gc.allocs_per_op"], "gc.pause_s": cm["gc.pause_s"]}
	pm, tracedS, err := perfLayers(perfCells(timedSpec.writebacks, timedSpec.lines, cfg.seed), t)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, pm)
	m["trace.overhead"] = metric{tracedS / plainS, "x"}
	return m, nil
}
