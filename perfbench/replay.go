package main

import (
	"reflect"
	"time"

	"deuce/internal/core"
	"deuce/internal/exp"
	"deuce/internal/pcmdev"
	"deuce/internal/timing"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// cellSpec names one experiment cell a traced replay reproduces. rc must
// carry every size explicitly (Writebacks, Warmup, Lines): the replays do
// not apply exp's defaults.
type cellSpec struct {
	prof workload.Profile
	kind core.Kind
	mode wear.Mode // wear cells only
	psi  int       // wear cells only
	rc   exp.RunConfig
}

// The timed cells' machine (exp.RunPerf): 8 cores over half the per-core
// working set, and a 15-slot write current budget. replay_test.go fails if
// these drift from what exp uses.
const (
	perfCores   = 8
	budgetSlots = 15
)

// wearTrace is one traced wear-cell replay.
type wearTrace struct {
	res    exp.FlipResult
	gen    callTimer // workload.Generator.NextWriteback
	write  callTimer // scheme Write, including the array beneath it
	array  *tracedArray
	writes int64  // measured writebacks
	slots  uint64 // write slots they consumed
}

// replayWear re-runs exp.RunWear's cell from outside: the same seeded
// generator, scheme and Start-Gap array, built cold, with the generator,
// the scheme's Write and the array timed per call over the measured
// window.
func replayWear(c cellSpec) (wearTrace, error) {
	var tr wearTrace
	var s core.Scheme
	gen, err := workload.New(c.prof, workload.Config{
		Seed: c.rc.Seed, CPUs: 1, LinesPerCPU: c.rc.Lines,
		FirstTouch: func(line uint64, initial []byte) { s.Install(line, initial) },
	})
	if err != nil {
		return tr, err
	}
	startGap := func(cfg pcmdev.Config) (pcmdev.Array, error) {
		return wear.NewStartGap(cfg, wear.StartGapConfig{Mode: c.mode, Psi: c.psi, FreeGapMoves: true})
	}
	s, err = core.New(c.kind, core.Params{Lines: gen.Lines(), MakeArray: arrayMaker(startGap, &tr.array)})
	if err != nil {
		return tr, err
	}
	for i := 0; i < c.rc.Warmup; i++ {
		s.Write(gen.NextWriteback(0))
	}
	s.Device().ResetStats()
	warm := s.Device().Stats()
	*tr.array = tracedArray{inner: tr.array.inner} // time the measured window only
	for i := 0; i < c.rc.Writebacks; i++ {
		t0 := time.Now()
		line, data := gen.NextWriteback(0)
		tr.gen.since(t0)
		t1 := time.Now()
		s.Write(line, data)
		tr.write.since(t1)
	}
	st := s.Device().Stats().Delta(warm)
	tr.writes, tr.slots = int64(st.Writes), st.SlotsUsed
	lineBits := float64(s.Device().Config().LineBits())
	tr.res = exp.FlipResult{
		Workload:       c.prof.Name,
		Scheme:         s.Name(),
		FlipFrac:       st.AvgFlipsPerWrite() / lineBits,
		DataFlipFrac:   float64(st.DataFlips) / float64(st.Writes) / lineBits,
		SlotAvg:        st.AvgSlotsPerWrite(),
		Writes:         st.Writes,
		PositionWrites: s.Device().PositionWrites(),
	}
	return tr, nil
}

// equalFlips compares two flip results bit for bit.
func equalFlips(a, b exp.FlipResult) bool { return reflect.DeepEqual(a, b) }

// add accumulates another replay's timers.
func (w *wearTrace) add(o wearTrace) {
	if w.array == nil {
		w.array = &tracedArray{}
	}
	addTimer(&w.gen, o.gen)
	addTimer(&w.write, o.write)
	addArray(w.array, o.array)
	w.writes += o.writes
	w.slots += o.slots
}

func addTimer(dst *callTimer, src callTimer) {
	dst.calls += src.calls
	dst.ns += src.ns
}

func addArray(dst, src *tracedArray) {
	addTimer(&dst.write, src.write)
	addTimer(&dst.peek, src.peek)
	addTimer(&dst.read, src.read)
	addTimer(&dst.load, src.load)
}

// metrics reports the generator, scheme and array layers of the replays.
// Scheme self time excludes the array calls made inside Write.
func (w wearTrace) metrics() map[string]metric {
	n := float64(w.writes)
	return map[string]metric{
		"workload.wb_ns":        {w.gen.perCall(), "ns"},
		"core.write_ns":         {float64(w.write.ns-w.array.totalNs()) / n, "ns"},
		"core.slots_per_write":  {float64(w.slots) / n, "count"},
		"array.write_ns":        {w.array.write.perCall(), "ns"},
		"array.peek_ns":         {w.array.peek.perCall(), "ns"},
		"array.calls_per_write": {float64(w.array.totalCalls()) / n, "count"},
	}
}

// perfTrace is one traced timed-cell replay.
type perfTrace struct {
	res        exp.PerfResult
	run        callTimer // Simulator.Run
	src        *tracedSource
	coster     *tracedCoster
	array      *tracedArray
	writebacks int64
	slots      uint64
}

// replayPerf re-runs exp.RunPerf's cell from outside on the sequential
// timing engine: the same warmed scheme, with the generator behind a
// traced trace.Source, the scheme's Write behind a traced
// timing.SlotCoster and its array behind a traced MakeArray.
func replayPerf(c cellSpec) (perfTrace, error) {
	var tr perfTrace
	var s core.Scheme
	gen, err := workload.New(c.prof, workload.Config{
		Seed: c.rc.Seed, CPUs: perfCores, LinesPerCPU: c.rc.Lines / 2,
		FirstTouch: func(line uint64, initial []byte) { s.Install(line, initial) },
	})
	if err != nil {
		return tr, err
	}
	s, err = core.New(c.kind, core.Params{Lines: gen.Lines(), MakeArray: arrayMaker(bareDevice, &tr.array)})
	if err != nil {
		return tr, err
	}
	for i := 0; i < c.rc.Warmup; i++ {
		s.Write(gen.NextWriteback(i % perfCores))
	}
	s.Device().ResetStats()
	warm := s.Device().Stats()
	*tr.array = tracedArray{inner: tr.array.inner}
	events := int(float64(c.rc.Writebacks) * (c.prof.MPKI + c.prof.WBPKI) / c.prof.WBPKI)
	tr.src = &tracedSource{inner: gen, remaining: events}
	tr.coster = &tracedCoster{inner: timing.SlotCosterFunc(func(line uint64, data []byte) int {
		return s.Write(line, data).Slots
	})}
	sim, err := timing.NewSimulator(timing.Config{Cores: perfCores, MaxConcurrentSlots: budgetSlots}, tr.src, tr.coster)
	if err != nil {
		return tr, err
	}
	start := time.Now()
	res, err := sim.Run(1 << 30)
	tr.run.since(start)
	if err != nil {
		return tr, err
	}
	delta := s.Device().Stats().Delta(warm)
	tr.res = exp.PerfResult{Workload: c.prof.Name, Scheme: s.Name(), Timing: res, BitFlips: delta.TotalFlips()}
	tr.writebacks = int64(res.Writes)
	tr.slots = delta.SlotsUsed
	return tr, nil
}

// add accumulates another replay's timers.
func (p *perfTrace) add(o perfTrace) {
	if p.src == nil {
		p.src, p.coster, p.array = &tracedSource{}, &tracedCoster{}, &tracedArray{}
	}
	addTimer(&p.run, o.run)
	addTimer(&p.src.next, o.src.next)
	addTimer(&p.coster.cost, o.coster.cost)
	addArray(p.array, o.array)
	p.writebacks += o.writebacks
	p.slots += o.slots
}

// metrics reports the generator, timing loop, scheme and array layers.
// The loop's self time is Run minus the source and coster calls it made;
// the scheme's is the coster minus the array calls beneath it.
func (p perfTrace) metrics() map[string]metric {
	events := float64(p.src.next.calls)
	self := p.run.ns - p.src.next.ns - p.coster.cost.ns
	return map[string]metric{
		"workload.event_ns":        {p.src.next.perCall(), "ns"},
		"timing.self_ns_per_event": {float64(self) / events, "ns"},
		"timing.events":            {events / float64(p.run.calls), "count"},
		"core.write_ns":            {float64(p.coster.cost.ns-p.array.totalNs()) / float64(p.coster.cost.calls), "ns"},
		"core.slots_per_write":     {float64(p.slots) / float64(p.writebacks), "count"},
		"array.write_ns":           {p.array.write.perCall(), "ns"},
		"array.peek_ns":            {p.array.peek.perCall(), "ns"},
		"array.calls_per_write":    {float64(p.array.totalCalls()) / float64(p.coster.cost.calls), "count"},
	}
}
