// Command perfbench is the repository's benchmark: one process per
// workload run, calling only the program's public entry points, printing
// every metric by name and unit as the last line of standard output.
//
//	go run . --workload gate --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	gate     fidelity.Check over all 58 expectations at CI scale, cold caches
//	timed    the fig16+fig17 timed grid (48 RunPerf cells) at 30000 writebacks
//	serve    2 closed-loop clients against servefront.Sharded, Zipf s=1.1, 50% reads
//	durable  one writer on deuce.Memory over FileBackend with group commit,
//	         then persist, close, reopen, restore and verify
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics instead: it replays the workload through
// decorators on the interfaces the program already accepts (trace.Source,
// timing.SlotCoster, core.Params.MakeArray and MakeBackend, and
// exp.RunConfig.Spans) and times each call from here. Layers the workload
// does not reach are measured on a short probe of the workload that does,
// so every traced run reports every layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked outcomes; every check that fails is one failure.
type tally struct {
	attempted, failed int64
	notes             []string
	// extra holds figures printed for the reader but outside the
	// result line's metric set (sim_speedup, reopen_s, failed_frac, ...).
	extra map[string]metric
}

// note records a printed-only figure.
func (t *tally) note(name string, v float64, unit string) {
	if t.extra == nil {
		t.extra = make(map[string]metric)
	}
	t.extra[name] = metric{v, unit}
}

// check records one checked outcome, keeping the first few failure
// descriptions for the report.
func (t *tally) check(ok bool, format string, args ...interface{}) {
	t.attempted++
	if !ok {
		t.failed++
		if t.failed <= 10 {
			t.notes = append(t.notes, "FAIL "+fmt.Sprintf(format, args...))
		}
	}
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	dir     string // scratch root for durable state
}

// workloadDef is one benchmark workload: measure reports its end-to-end
// metrics; layers is its traced replay, at full scale for its own traced
// run or as a short probe for another workload's (see traceAll).
type workloadDef struct {
	measure func(config) (map[string]metric, tally, error)
	layers  func(cfg config, full bool, t *tally) (map[string]metric, error)
}

var workloads = map[string]workloadDef{
	"gate":    {measureGate, gateLayers},
	"timed":   {measureTimed, timedLayers},
	"serve":   {measureServe, serveLayers},
	"durable": {measureDurable, durableLayers},
}

func main() {
	name := flag.String("workload", "", "workload: gate, timed, serve or durable")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "how long to keep measuring")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced replays")
	dir := flag.String("dir", os.TempDir(), "scratch directory for durable state")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, dir: *dir}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s seed=%d workload=%s trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), *seed, *name, *traced)

	var metrics map[string]metric
	var t tally
	var err error
	if *traced == 1 {
		metrics, t, err = traceAll(cfg, *name)
	} else {
		metrics, t, err = w.measure(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range t.notes {
		fmt.Println("# " + n)
	}
	if t.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s checked nothing\n", *name)
		os.Exit(1)
	}
	t.note("failed_frac", float64(t.failed)/float64(t.attempted), "frac")
	printMetrics(metrics, "")
	printMetrics(t.extra, " (not in the result line)")
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func printMetrics(ms map[string]metric, suffix string) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-34s %14.6g %s%s\n", k, ms[k].Value, ms[k].Unit, suffix)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repeatSetup runs setup n times and returns the last result with the
// median duration: set-up is short, so one timing of it is mostly noise.
func repeatSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var v T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return v, median(secs), nil
}

// lineBits is the data cells of a line, the base of sim_flip_pct.
const lineBits = 512

// sample is one measured unit of work.
type sample struct {
	wall     float64 // seconds
	opsPerS  float64 // operations completed per second
	p50, p99 float64 // per-operation latency, microseconds
	simFlip  float64 // DEUCE cells programmed per write, % of lineBits
}

// measureFor repeats unit until seconds have passed (at least once) and
// returns every sample. It first collects set-up's garbage, so no unit
// shares the CPU with a collection it did not cause.
func measureFor(seconds float64, unit func() (sample, error)) ([]sample, error) {
	runtime.GC()
	start := time.Now()
	var out []sample
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		s, err := unit()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// endToEnd turns samples into the end-to-end metrics: the median of each
// per-unit value, set-up time, and the process's peak resident memory.
func endToEnd(samples []sample, setupS float64, t *tally) map[string]metric {
	t.notes = append(t.notes, fmt.Sprintf("%d units, wall_s each: %v", len(samples), unitWalls(samples)))
	pick := func(f func(sample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"wall_s":       {pick(func(s sample) float64 { return s.wall }), "s"},
		"ops_per_s":    {pick(func(s sample) float64 { return s.opsPerS }), "1/s"},
		"p50_us":       {pick(func(s sample) float64 { return s.p50 }), "us"},
		"p99_us":       {pick(func(s sample) float64 { return s.p99 }), "us"},
		"sim_flip_pct": {pick(func(s sample) float64 { return s.simFlip }), "%"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
}

// unitWalls lists each unit's wall time, for the report.
func unitWalls(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall
	}
	return out
}

// checkExact fails the run when a deterministic simulated result differs
// between units of the same run: a speed-only difference must never move
// one.
func checkExact(t *tally, what string, samples []sample) {
	for _, s := range samples[1:] {
		t.check(s.simFlip == samples[0].simFlip, "%s: sim_flip_pct %v then %v within one run", what, samples[0].simFlip, s.simFlip)
	}
}
