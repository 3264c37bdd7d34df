package exp

import (
	"fmt"
	"os"
	"strings"

	"deuce/internal/core"
	"deuce/internal/obs/span"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// Warm-state reuse (DESIGN.md §10). Every grid cell historically built a
// fresh generator and scheme, replayed rc.Warmup writebacks and then
// synthesized its own measured window — identical generator work wherever
// cells share a (workload, geometry, seed) tuple. This file caches that
// work as two streams per tuple: the warm stream (the recorded
// install/write warmup plus the generator parked at the warmup/measured
// boundary) and, for the flip topology, the measured stream (the
// measured window recorded once).
//
// A cell builds a fresh scheme and replays the warm stream into it —
// bit-identical to having run the warmup cold (pinned by the warm
// differential suite). A flip or wear cell then replays the measured
// stream; a timed cell takes Generator.Fork of the parked generator. A
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

// measuredStreamKey identifies one recorded measured window: the flip
// topology's warm stream plus the window length.
func measuredStreamKey(prof workload.Profile, rc RunConfig) string {
	warm := strings.TrimPrefix(warmStreamKey(prof, rc, flipTopology(rc)), "warmStream|")
	return fmt.Sprintf("measuredStream|%s|wb=%d", warm, rc.Writebacks)
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
		warmStreams.Add(1)
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

// installOp marks a measured-stream line index as an initial page
// placement; line indices stay below it (checked when recording).
const installOp = 1 << 31

// measuredStream is a measured window recorded once per (profile, flip
// topology, seed, warmup, writebacks), continuing the warm stream warm:
// op i is lines[i] (| installOp for an install the generator's first
// touch of a line fired before the writeback that needed it) with the
// 64-byte payload data[i*LineBytes:]. Payloads are stored whole, 68 bytes
// an op. Storing only the changed words would cost 12-25 bytes on the
// sparse profiles (2-8.5 of 32 words change per writeback) but 68 on the
// dense ones, and the planner frees each stream after its last cell, so
// only a few are live at once; DESIGN §10 has the measurements. Frozen
// once built, like warmEntry.
type measuredStream struct {
	warm  *warmEntry
	lines []uint32
	data  []byte
}

// measuredStreamFor returns the cached measured window for a flip cell,
// recording it on first use from a fork of the parked warm generator.
// rc must be defaulted.
func measuredStreamFor(prof workload.Profile, rc RunConfig) (*measuredStream, error) {
	key := measuredStreamKey(prof, rc)
	v, err := sharedCache.Do(key, func() (interface{}, error) {
		e, err := warmStreamFor(prof, rc, flipTopology(rc))
		if err != nil {
			return nil, err
		}
		sp := rc.Spans.Start(nil, "measured-stream", span.Str("key", key))
		defer sp.End()
		m, err := recordMeasured(e, rc.Writebacks)
		if err != nil {
			return nil, err
		}
		measuredStreams.Add(1)
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*measuredStream), nil
}

// recordMeasured synthesizes writebacks single-CPU writebacks after the
// warm stream e, installs included, in the order they fire.
func recordMeasured(e *warmEntry, writebacks int) (*measuredStream, error) {
	if e.gen.Lines() > installOp {
		return nil, fmt.Errorf("exp: %d lines exceed the measured-stream line index range", e.gen.Lines())
	}
	// Every line installs at most once, so the window holds at most
	// Lines installs: sized for that, neither slice ever regrows.
	n := writebacks + e.gen.Lines()
	m := &measuredStream{warm: e, lines: make([]uint32, 0, n), data: make([]byte, 0, n*workload.LineBytes)}
	gen := e.gen.Fork(func(line uint64, initial []byte) {
		m.lines = append(m.lines, uint32(line)|installOp)
		m.data = append(m.data, initial...)
	})
	for i := 0; i < writebacks; i++ {
		line, data := gen.NextWriteback(0)
		m.lines = append(m.lines, uint32(line))
		m.data = append(m.data, data...)
	}
	return m, nil
}

// measuredReplay feeds a cell the recorded measured window. A writeback
// is a subslice of the shared record, so it costs neither generator work
// nor an allocation. Installs go straight into the scheme, in the order a
// cold run's first-touch callback would fire them.
type measuredReplay struct {
	m  *measuredStream
	s  core.Scheme
	op int
}

// NextWriteback implements writebackSource. The returned payload is the
// shared record: read-only, like the warm ops' data.
func (r *measuredReplay) NextWriteback(int) (uint64, []byte) {
	for {
		i := r.op
		r.op++
		line := r.m.lines[i]
		data := r.m.data[i*workload.LineBytes : (i+1)*workload.LineBytes : (i+1)*workload.LineBytes]
		if line&installOp == 0 {
			return uint64(line), data
		}
		r.s.Install(uint64(line&^installOp), data)
	}
}

// writebackSource is what a flip cell's measured window draws from: the
// cell's own generator on the cold path, a measuredReplay otherwise.
type writebackSource interface {
	NextWriteback(cpu int) (uint64, []byte)
}

// replayable reports whether a cell may replay shared streams instead of
// synthesizing its own. A trace hook must see the warmup go by, and a
// durable backend must be driven for real, so both keep the cold path.
func replayable(params core.Params, rc RunConfig) bool {
	return warmReuseEnabled() && rc.Trace == nil && rc.Backend == "" &&
		params.Trace == nil && params.MakeBackend == nil
}

// warmedScheme hands a cell a scheme warmed through rc.Warmup writebacks,
// either by replaying the cached warm stream (fast path) or by running the
// warmup cold. On the fast path it returns the warm stream e the scheme
// was built from and a nil generator: the caller continues from e, a timed
// cell by forking e.gen and a flip cell by replaying the measured stream.
// On the cold path e is nil and gen is the cell's own generator, parked at
// the measured window. The cold path reproduces the historical per-cell
// behavior exactly; the fast path feeds the scheme the same install/write
// sequence in the same order, so it is bit-identical.
func warmedScheme(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, topo warmTopology) (s core.Scheme, gen *workload.Generator, e *warmEntry, err error) {
	wsp := rc.startSpan("warmup", span.Str("workload", prof.Name), span.Str("scheme", string(kind)))
	defer wsp.End()
	if !replayable(params, rc) {
		wsp.Annotate(span.Str("outcome", "cold"))
		s, gen, err = coldWarmed(prof, kind, params, rc, topo)
		return s, gen, nil, err
	}
	wsp.Annotate(span.Str("outcome", "replay"))
	if e, err = warmStreamFor(prof, rc, topo); err != nil {
		return nil, nil, nil, err
	}
	if s, err = replayWarm(e, kind, params); err != nil {
		return nil, nil, nil, err
	}
	return s, nil, e, nil
}

// coldWarmed builds a cell's own generator and scheme and runs the warmup
// through them: the historical per-cell path.
func coldWarmed(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, topo warmTopology) (core.Scheme, *workload.Generator, error) {
	coldCells.Add(1)
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

// replayWarm builds a fresh scheme and replays the warm stream e into it.
func replayWarm(e *warmEntry, kind core.Kind, params core.Params) (core.Scheme, error) {
	params.Lines = e.gen.Lines()
	s, err := core.New(kind, params)
	if err != nil {
		return nil, err
	}
	for _, op := range e.ops {
		if op.install {
			s.Install(op.line, op.data)
		} else {
			s.Write(op.line, op.data)
		}
	}
	warmReplays.Add(1)
	return s, nil
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
