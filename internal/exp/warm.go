package exp

import (
	"fmt"
	"os"

	"deuce/internal/core"
	"deuce/internal/obs/span"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// Warm-state reuse (DESIGN.md §10). Every grid cell historically built a
// fresh generator and scheme and replayed rc.Warmup writebacks before its
// measured window — identical work wherever cells share a (workload,
// geometry, seed) tuple. This file caches the shareable half of that
// work: one warmup synthesis per (profile, topology, seed, warmup), the
// recorded install/write stream plus the generator parked at the
// warmup/measured boundary.
//
// A cell then builds a fresh scheme, replays the recorded stream into it
// and takes Generator.Fork of the parked generator — bit-identical to
// having run the warmup cold (pinned by the warm differential suite). A
// cached stream is never advanced after construction — consumers only
// read its ops and fork its generator — which is what makes concurrent
// cells safe without locks beyond the cache's own single-flight.

// warmOp is one recorded warmup operation: an initial page placement
// (install) or a warmup writeback, in synthesis order.
type warmOp struct {
	install bool
	line    uint64
	data    []byte
}

// warmEntry is a cached warmup: the recorded operation stream and the
// generator parked exactly at the end of warmup. Both are frozen —
// consumers replay ops into fresh schemes and Fork the generator.
type warmEntry struct {
	ops []warmOp
	gen *workload.Generator
}

// warmTopology pins the generator shape a runner warms with: RunFlips uses
// one CPU over the full working set, RunPerf eight CPUs over half.
type warmTopology struct {
	cpus int
	lpc  int // LinesPerCPU
}

func flipTopology(rc RunConfig) warmTopology { return warmTopology{cpus: 1, lpc: rc.Lines} }

// perfTopology halves the per-CPU working set: 8 cores, total memory
// bounded (see RunPerf).
func perfTopology(rc RunConfig) warmTopology {
	return warmTopology{cpus: perfCPUs, lpc: rc.Lines / 2}
}

// warmStreamKey identifies one warmup synthesis: profile, topology, seed
// and warmup length. The planner uses the same key to predict sharing.
func warmStreamKey(prof workload.Profile, rc RunConfig, topo warmTopology) string {
	return fmt.Sprintf("warmStream|prof=%+v|cpus=%d|lpc=%d|seed=%d|warm=%d",
		prof, topo.cpus, topo.lpc, rc.Seed, rc.Warmup)
}

// warmStreamFor returns the cached warmup synthesis for the tuple,
// building it on first use. rc must be defaulted.
func warmStreamFor(prof workload.Profile, rc RunConfig, topo warmTopology) (*warmEntry, error) {
	key := warmStreamKey(prof, rc, topo)
	v, err := sharedCache.Do(key, func() (interface{}, error) {
		// Rooted at the tracer, not the triggering cell: under the cell
		// pool whichever cell reaches the single-flight entry first would
		// otherwise become the parent, making the tree schedule-dependent.
		sp := rc.Spans.Start(nil, "warm-stream", span.Str("key", key))
		defer sp.End()
		coldWarmups.Add(1)
		e := &warmEntry{}
		gen, err := workload.New(prof, workload.Config{
			Seed:        rc.Seed,
			CPUs:        topo.cpus,
			LinesPerCPU: topo.lpc,
			// Record installs instead of applying them; the replay
			// interleaves them with the writes in synthesis order,
			// exactly as a cold run's FirstTouch would fire.
			FirstTouch: func(line uint64, initial []byte) {
				e.ops = append(e.ops, warmOp{install: true, line: line, data: initial})
			},
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < rc.Warmup; i++ {
			line, data := gen.NextWriteback(i % topo.cpus)
			e.ops = append(e.ops, warmOp{line: line, data: data})
		}
		e.gen = gen
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*warmEntry), nil
}

// warmedScheme hands a runner a scheme warmed through rc.Warmup writebacks
// plus the matching generator parked at the measured window, either by
// replaying a cached warm stream (fast path) or by running the warmup
// cold. The cold path reproduces the historical per-cell behavior
// exactly; the fast path feeds the scheme the same install/write sequence
// in the same order, so it is bit-identical.
func warmedScheme(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, topo warmTopology) (core.Scheme, *workload.Generator, error) {
	wsp := rc.startSpan("warmup", span.Str("workload", prof.Name), span.Str("scheme", string(kind)))
	outcome := "cold"
	defer func() {
		wsp.Annotate(span.Str("outcome", outcome))
		wsp.End()
	}()
	if warmReuseEnabled() && rc.Trace == nil && rc.Backend == "" {
		if _, ok := paramsKey(params); ok {
			outcome = "replay"
			return warmReplay(prof, kind, params, rc, topo)
		}
	}

	coldWarmups.Add(1)
	var s core.Scheme
	gen, err := workload.New(prof, workload.Config{
		Seed:        rc.Seed,
		CPUs:        topo.cpus,
		LinesPerCPU: topo.lpc,
		// Initial page placement goes through Install so a line's first
		// writeback is an ordinary update, not a whole-line transition
		// from zero (paper §3.1).
		FirstTouch: func(line uint64, initial []byte) { s.Install(line, initial) },
	})
	if err != nil {
		return nil, nil, err
	}
	params.Lines = gen.Lines()
	params.Trace = rc.Trace
	if rc.Backend != "" && params.MakeArray == nil {
		// Each cell gets a fresh directory: reopening another run's pages
		// would seed the array with stale contents instead of the lazily
		// initialized zero state every measurement assumes.
		dir, err := os.MkdirTemp(rc.BackendDir, "cell-*")
		if err != nil {
			return nil, nil, fmt.Errorf("exp: backend state dir: %w", err)
		}
		params.MakeBackend = core.DirBackendMaker(dir, rc.Backend == "dir", 0)
	}
	s, err = core.New(kind, params)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < rc.Warmup; i++ {
		line, data := gen.NextWriteback(i % topo.cpus)
		s.Write(line, data)
	}
	return s, gen, nil
}

// warmReplay is the fast path behind warmedScheme: replay the cached warm
// stream for this cell into a fresh scheme.
func warmReplay(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, topo warmTopology) (core.Scheme, *workload.Generator, error) {
	e, err := warmStreamFor(prof, rc, topo)
	if err != nil {
		return nil, nil, err
	}
	params.Lines = e.gen.Lines()
	s, err := core.New(kind, params)
	if err != nil {
		return nil, nil, err
	}
	for _, op := range e.ops {
		if op.install {
			s.Install(op.line, op.data)
		} else {
			s.Write(op.line, op.data)
		}
	}
	gen := e.gen.Fork(func(line uint64, initial []byte) { s.Install(line, initial) })
	warmReplays.Add(1)
	return s, gen, nil
}

// Cell cache keys. The planner predicts runtime sharing by computing the
// same strings the result caches use, so the two can never drift: a plan
// node and a cache entry coincide exactly when their keys are equal.

func flipCellKey(prof workload.Profile, kind core.Kind, pk string, rc RunConfig) string {
	return fmt.Sprintf("flipCell|prof=%+v|kind=%s|%s|%s", prof, kind, pk, rc.key())
}

func perfCellKey(prof workload.Profile, kind core.Kind, pk string, rc RunConfig) string {
	return fmt.Sprintf("perfCell|prof=%+v|kind=%s|%s|%s", prof, kind, pk, rc.key())
}

func wearCellKey(prof workload.Profile, kind core.Kind, pk string, mode wear.Mode, psi int, rc RunConfig) string {
	return fmt.Sprintf("wearCell|prof=%+v|kind=%s|%s|mode=%v|psi=%d|%s", prof, kind, pk, mode, psi, rc.key())
}

// cellAttrs builds the identity attributes for a cell span: workload and
// scheme always, plus the cell's cache key when it has one. The key attr
// carries the exact string the plan node and cache entry use, which is
// what lets the critical-path analysis map measured span durations back
// onto plan-DAG nodes.
func cellAttrs(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig,
	keyFn func(workload.Profile, core.Kind, string, RunConfig) string) []span.Attr {
	attrs := []span.Attr{span.Str("workload", prof.Name), span.Str("scheme", string(kind))}
	if pk, ok := paramsKey(params); ok {
		attrs = append(attrs, span.Str("key", keyFn(prof, kind, pk, rc)))
	}
	return attrs
}

// cellCacheable reports whether a single cell's result may be memoized:
// the params must have a canonical key and the config must carry no
// single-run observability hook (a cached result records nothing, so a
// hooked run must execute for real).
func cellCacheable(params core.Params, rc RunConfig) bool {
	if !warmReuseEnabled() {
		return false
	}
	if _, ok := paramsKey(params); !ok {
		return false
	}
	// A durable backend must execute for real: the run's observable
	// product includes the on-disk state, which a cached result lacks.
	if rc.Backend != "" {
		return false
	}
	return rc.Trace == nil && rc.Heatmap == nil && rc.Metrics == nil
}
