package workload

// Fork returns an independent deep copy of the generator positioned at the
// same stream state: both copies produce the bit-identical future event
// stream, and advancing either never affects the other. It is the workload
// half of warm-state reuse (internal/exp) — a generator warmed once is
// forked per grid cell, paired with a fresh scheme that replays the
// recorded warmup stream.
//
// firstTouch replaces cfg.FirstTouch in the copy. The original's callback
// almost always captures the original scheme (experiment runners pass a
// closure over Scheme.Install), so carrying it into the fork would install
// fresh lines into the wrong scheme; callers must supply a callback bound
// to the forked scheme, or nil.
func (g *Generator) Fork(firstTouch func(line uint64, initial []byte)) *Generator {
	ng := &Generator{
		prof:       g.prof,
		cfg:        g.cfg,
		rng:        g.rng.Clone(),
		lines:      make([]lineState, len(g.lines)),
		base:       g.base, // immutable after construction; shared
		nextCPU:    g.nextCPU,
		eventProb:  g.eventProb,
		writebacks: g.writebacks,
		reads:      g.reads,
	}
	ng.cfg.FirstTouch = firstTouch
	for i := range g.lines {
		ls := &g.lines[i]
		if ls.data != nil {
			ng.lines[i].data = append([]byte(nil), ls.data...)
		}
		// Footprints are built once and never mutated; share them.
		ng.lines[i].footprint = ls.footprint
	}
	return ng
}
