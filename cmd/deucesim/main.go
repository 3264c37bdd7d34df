// Command deucesim runs a single simulator configuration: one workload,
// one scheme, with every knob on a flag, and prints flip, slot, and wear
// statistics. It is the tool for one-off questions the fixed experiments
// of deucebench do not answer (e.g. "what does DEUCE with 4-byte words and
// epoch 64 do on milc?").
//
// Usage:
//
//	deucesim -workload mcf -scheme deuce -epoch 32 -word 2 -writebacks 50000
//	deucesim -workload libq -scheme encr-dcw -wear hwl
//	deucesim -workload mcf -trace out/mcf -heatmap out/mcf-wear.csv
//	deucesim -replay mcf.trace -scheme deuce
//	deucesim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"deuce/internal/core"
	"deuce/internal/exp"
	"deuce/internal/obs"
	"deuce/internal/pcmdev"
	"deuce/internal/trace"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deucesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "mcf", "benchmark profile (see -list)")
		schemeName   = flag.String("scheme", "deuce", "write scheme (see -list)")
		epoch        = flag.Int("epoch", 32, "DEUCE epoch interval in writes (power of two)")
		word         = flag.Int("word", 2, "tracking word size in bytes (1, 2, 4, 8)")
		writebacks   = flag.Int("writebacks", 30000, "measured writebacks")
		warmup       = flag.Int("warmup", 0, "warm-up writebacks (0 = 2x working set)")
		lines        = flag.Int("lines", 2048, "working-set lines")
		seed         = flag.Int64("seed", 1, "workload seed")
		wearMode     = flag.String("wear", "none", "wear leveling: none, vwl, hwl, hwl-hashed")
		psi          = flag.Int("psi", 100, "Start-Gap gap-move interval in writes")
		replayPath   = flag.String("replay", "", "replay writebacks from a tracegen file instead of a synthetic workload")
		replayLines  = flag.Int("replaylines", 1<<20, "memory size in lines when replaying with -replay")
		tracePrefix  = flag.String("trace", "", "record per-write events to PREFIX.jsonl and PREFIX.trace.json (Chrome trace)")
		traceSample  = flag.Int("tracesample", 1, "keep every Nth write event in the -trace stream (epoch resets always kept)")
		traceCap     = flag.Int("tracecap", 1<<16, "event-trace ring capacity (oldest events drop beyond this)")
		metricsPath  = flag.String("metrics", "", "export the run's obs registry (write_slots/write_flips histograms) as JSON to this file")
		heatmapPath  = flag.String("heatmap", "", "export periodic per-line write-count snapshots as CSV to this file")
		heatmapEvery = flag.Int("heatmapevery", 0, "measured writebacks between heatmap snapshots (0 = writebacks/20)")
		backendName  = flag.String("backend", "mem", "storage backend for the array and counters: mem, file (one mmap file per region), dir (sharded array directory)")
		backendDir   = flag.String("dir", "", "state directory for -backend file/dir (reusing a directory reopens its stored pages)")
		profilePath  = flag.String("profile", "", "load a custom workload profile from a JSON file (overrides -workload)")
		dumpProfile  = flag.String("dumpprofile", "", "print a built-in profile as JSON (a template for -profile) and exit")
		list         = flag.Bool("list", false, "list workloads and schemes, then exit")
		version      = flag.Bool("version", false, "print build/version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.ReadBuildInfo().String())
		return nil
	}

	if *list {
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		fmt.Print("schemes:  ")
		for _, k := range core.Kinds() {
			fmt.Printf(" %s", k)
		}
		fmt.Println()
		fmt.Println("wear:      none vwl hwl hwl-hashed")
		return nil
	}

	if *dumpProfile != "" {
		p, err := workload.ByName(*dumpProfile)
		if err != nil {
			return err
		}
		blob, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}

	meta := obs.NewRunMeta("deucesim", os.Args[1:])

	params := core.Params{
		EpochInterval: *epoch,
		WordBytes:     *word,
	}
	// Durable backends (DESIGN.md §14): results are bit-identical to the
	// in-memory run — the flag exists to exercise and inspect on-disk state.
	switch *backendName {
	case "mem":
		if *backendDir != "" {
			return fmt.Errorf("-dir only applies with -backend file or dir")
		}
	case "file", "dir":
		if *backendDir == "" {
			return fmt.Errorf("-backend %s requires -dir", *backendName)
		}
		if *wearMode != "none" {
			return fmt.Errorf("-backend %s cannot combine with -wear (remap registers are volatile controller state)", *backendName)
		}
		params.MakeBackend = core.DirBackendMaker(*backendDir, *backendName == "dir", 0)
	default:
		return fmt.Errorf("unknown -backend %q (want mem, file or dir)", *backendName)
	}

	var tr *obs.Trace
	if *tracePrefix != "" {
		tr = obs.NewTrace(*traceCap, *traceSample)
	}

	if *replayPath != "" {
		if *heatmapPath != "" {
			return fmt.Errorf("-heatmap is not supported with -replay (replay has no measured-window boundary)")
		}
		if *metricsPath != "" {
			return fmt.Errorf("-metrics is not supported with -replay (replay has no measured-window boundary)")
		}
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		defer f.Close()
		params.Trace = tr
		res, err := exp.ReplayFlips(trace.ReaderSource{R: trace.NewReader(f)}, *replayLines, core.Kind(*schemeName), params)
		if err != nil {
			return err
		}
		fmt.Printf("trace      %s (%d writebacks)\n", *replayPath, res.Writes)
		fmt.Printf("scheme     %s  (epoch %d, word %dB)\n", res.Scheme, *epoch, *word)
		fmt.Printf("flips      %.1f%% of line cells per write\n", res.FlipFrac*100)
		fmt.Printf("slots      %.2f write slots per write\n", res.SlotAvg)
		return writeObsOutputs(meta, tr, nil, nil, *tracePrefix, "", "")
	}

	var prof workload.Profile
	var err error
	if *profilePath != "" {
		f, err := os.Open(*profilePath)
		if err != nil {
			return err
		}
		prof, err = workload.ParseProfile(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		prof, err = workload.ByName(*workloadName)
		if err != nil {
			return err
		}
	}
	var hm *obs.Heatmap
	hmEvery := *heatmapEvery
	if *heatmapPath != "" {
		hm = obs.NewHeatmap()
		if hmEvery == 0 {
			hmEvery = *writebacks / 20
		}
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry(1)
	}
	rc := exp.RunConfig{
		Writebacks:   *writebacks,
		Warmup:       *warmup,
		Lines:        *lines,
		Seed:         *seed,
		Trace:        tr,
		Heatmap:      hm,
		HeatmapEvery: hmEvery,
		Metrics:      reg,
	}
	meta.Config = map[string]interface{}{
		"workload": prof.Name, "scheme": *schemeName, "epoch": *epoch,
		"word": *word, "writebacks": *writebacks, "warmup": *warmup,
		"lines": *lines, "seed": *seed, "wear": *wearMode, "psi": *psi,
		"tracesample": *traceSample, "backend": *backendName,
	}

	var res exp.FlipResult
	var wp *wear.Profile
	switch *wearMode {
	case "none":
		res, err = exp.RunFlips(prof, core.Kind(*schemeName), params, rc, true)
		if err != nil {
			return err
		}
		p, err := wear.Analyze(res.PositionWrites, res.Writes)
		if err != nil {
			return err
		}
		wp = &p
	case "vwl", "hwl", "hwl-hashed":
		mode := map[string]wear.Mode{
			"vwl": wear.VWLOnly, "hwl": wear.HWL, "hwl-hashed": wear.HWLHashed,
		}[*wearMode]
		wres, err := exp.RunWear(prof, core.Kind(*schemeName), params, mode, *psi, rc)
		if err != nil {
			return err
		}
		res, wp = wres.FlipResult, &wres.Profile
	default:
		return fmt.Errorf("unknown wear mode %q", *wearMode)
	}

	fmt.Printf("workload   %s  (MPKI %.2f, WBPKI %.2f)\n", prof.Name, prof.MPKI, prof.WBPKI)
	fmt.Printf("scheme     %s  (epoch %d, word %dB, wear %s)\n", res.Scheme, *epoch, *word, *wearMode)
	fmt.Printf("writebacks %d\n", res.Writes)
	fmt.Printf("flips      %.1f%% of line cells per write (%.1f cells)\n",
		res.FlipFrac*100, res.FlipFrac*float64(pcmdev.DefaultLineBytes*8))
	fmt.Printf("slots      %.2f write slots per write (of %d)\n",
		res.SlotAvg, pcmdev.DefaultLineBytes*8/pcmdev.SlotBits)
	fmt.Printf("wear       max/avg bit-position skew %.1fx (hottest position %d)\n",
		wp.Skew(), wp.MaxPos)
	fmt.Printf("lifetime   %.0f writes to first cell death at 1e7 endurance (perfect: %.0f)\n",
		wp.LifetimeWrites(wear.DefaultEndurance), wp.PerfectLifetimeWrites(wear.DefaultEndurance))
	if hm != nil {
		fmt.Printf("heatmap    %s\n", hm.Summary(48))
	}
	if reg != nil {
		// Scalar outcomes ride along with the per-write histograms so the
		// snapshot alone reconstructs the run's headline numbers (and the
		// regression ledger can ingest them as metrics).
		reg.Gauge("flip_frac").Set(res.FlipFrac)
		reg.Gauge("slot_avg").Set(res.SlotAvg)
		reg.Gauge("wear_skew").Set(wp.Skew())
		reg.Counter("writebacks").Add(0, res.Writes)
	}
	return writeObsOutputs(meta, tr, hm, reg, *tracePrefix, *heatmapPath, *metricsPath)
}

// writeObsOutputs materializes the requested observability artifacts: the
// event trace as JSONL and Chrome-trace JSON, the wear heatmap as CSV, the
// metrics-registry snapshot as JSON, and — whenever at least one artifact
// was produced — a runmeta.json manifest next to the first output so the
// run is reconstructible later.
func writeObsOutputs(meta *obs.RunMeta, tr *obs.Trace, hm *obs.Heatmap, reg *obs.Registry, tracePrefix, heatmapPath, metricsPath string) error {
	writeFile := func(path string, emit func(f *os.File) error) error {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		meta.AddOutput(path)
		return nil
	}
	if tr != nil && tracePrefix != "" {
		jsonl := tracePrefix + ".jsonl"
		chrome := tracePrefix + ".trace.json"
		if err := writeFile(jsonl, func(f *os.File) error { return tr.WriteJSONL(f) }); err != nil {
			return err
		}
		if err := writeFile(chrome, func(f *os.File) error { return tr.WriteChromeTrace(f) }); err != nil {
			return err
		}
		fmt.Printf("trace      kept %d of %d events -> %s, %s\n", tr.Kept(), tr.Seen(), jsonl, chrome)
	}
	if hm != nil && heatmapPath != "" {
		if err := writeFile(heatmapPath, func(f *os.File) error { return hm.WriteCSV(f) }); err != nil {
			return err
		}
		fmt.Printf("heatmap    %d snapshots -> %s\n", hm.Rows(), heatmapPath)
	}
	if reg != nil && metricsPath != "" {
		if err := reg.Snapshot().WriteJSONFile(metricsPath); err != nil {
			return err
		}
		meta.AddOutput(metricsPath)
		fmt.Printf("metrics    %s\n", metricsPath)
	}
	if len(meta.Outputs) == 0 {
		return nil
	}
	metaPath := filepath.Join(filepath.Dir(meta.Outputs[0]), "runmeta.json")
	if err := meta.WriteFile(metaPath); err != nil {
		return err
	}
	fmt.Printf("runmeta    %s\n", metaPath)
	return nil
}
