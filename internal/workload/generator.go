package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"deuce/internal/clonerand"
	"deuce/internal/trace"
)

// LineBytes is the cache-line size the generators produce.
const LineBytes = 64

// wordBytes is the modelling granularity for footprints (matches the
// paper's 2-byte tracking words; schemes may still track at other sizes).
const wordBytes = 2

// wordsPerLine is LineBytes/wordBytes.
const wordsPerLine = LineBytes / wordBytes

// Config sizes a Generator.
type Config struct {
	// CPUs is the number of cores in rate mode; 0 means 1.
	CPUs int
	// LinesPerCPU is each core's private working set in lines; 0 means
	// 4096 (256 KB of hot data per core — scaled down from the real
	// working sets but far larger than the DEUCE epoch state, which is
	// what matters).
	LinesPerCPU int
	// Seed makes the stream deterministic; streams with different
	// seeds are statistically identical.
	Seed int64
	// FirstTouch, when non-nil, is invoked the first time a line is
	// materialized, with the line's content *before* its first
	// writeback. Experiment runners use it to Install initial page
	// contents into schemes (paper §3.1: pages are in memory and
	// initially encrypted before the measured run), so a line's first
	// writeback is an ordinary sparse update rather than a whole-line
	// change.
	FirstTouch func(line uint64, initial []byte)
}

func (c *Config) setDefaults() {
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	if c.LinesPerCPU == 0 {
		c.LinesPerCPU = 4096
	}
}

// lineState is the generator's shadow of one line's plaintext plus its
// footprint.
type lineState struct {
	data      []byte
	footprint []int // word indices; nil until first touched
}

// Generator produces a deterministic stream of writebacks and read misses
// for one benchmark profile. It implements trace.Source.
type Generator struct {
	prof Profile
	cfg  Config
	// rng drives every stochastic decision. The clonerand stream is
	// bit-identical to rand.New(rand.NewSource(seed)), and its Clone is
	// a copy of the state, which is what makes Fork possible.
	rng *clonerand.Rand

	lines []lineState // cfg.CPUs * cfg.LinesPerCPU entries
	base  []int       // benchmark-wide base footprint offsets

	nextCPU   int
	eventProb float64 // probability an event is a read miss

	writebacks uint64
	reads      uint64
}

// New builds a Generator for the profile.
func New(prof Profile, cfg Config) (*Generator, error) {
	if err := prof.validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	if cfg.CPUs < 1 || cfg.CPUs > 255 {
		return nil, fmt.Errorf("workload: CPUs %d out of [1,255]", cfg.CPUs)
	}
	if cfg.LinesPerCPU < 1 {
		return nil, fmt.Errorf("workload: LinesPerCPU must be positive, got %d", cfg.LinesPerCPU)
	}
	g := &Generator{
		prof:  prof,
		cfg:   cfg,
		rng:   clonerand.New(cfg.Seed ^ int64(profileHash(prof.Name))),
		lines: make([]lineState, cfg.CPUs*cfg.LinesPerCPU),
	}
	// Benchmark-wide base footprint, seeded by the profile name so every
	// run of the same benchmark shares it (struct layout is a property
	// of the program). Footprint words come in short contiguous runs:
	// the hot fields of a struct are adjacent, which is what keeps
	// coarse-grained tracking (4- and 8-byte words, Figure 8) from
	// paying the worst-case penalty.
	g.base = clusteredFootprint(rand.New(rand.NewSource(int64(profileHash(prof.Name)))), prof.FootprintWords)
	total := prof.MPKI + prof.WBPKI
	g.eventProb = prof.MPKI / total
	return g, nil
}

// MustNew is New for arguments known to be valid.
func MustNew(prof Profile, cfg Config) *Generator {
	g, err := New(prof, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// clusteredFootprint picks n word offsets forming a mostly-contiguous
// region with occasional one-word holes. Hot fields of a struct (and the
// cells of a stencil) are adjacent, so writeback footprints concentrate in
// as few 128-bit device chunks as possible — this is what keeps the
// unencrypted memory at ~2 write slots per request (Figure 15) and keeps
// coarse-grained tracking affordable (Figure 8).
func clusteredFootprint(rng *rand.Rand, n int) []int {
	// Large footprints (stencil rows, matrix blocks) start at a 128-bit
	// chunk boundary and run dense; small ones (a few struct fields)
	// start at any 4-byte boundary and may contain cold holes.
	chunkWords := 8 // 128-bit device chunk = 8 two-byte words
	var start int
	holes := 0.1
	if n >= chunkWords {
		start = chunkWords * rng.Intn(wordsPerLine/chunkWords)
		holes = 0
	} else {
		start = 2 * rng.Intn(wordsPerLine/2)
	}
	out := make([]int, 0, n)
	w := start
	for len(out) < n {
		out = append(out, w%wordsPerLine)
		w++
		if holes > 0 && rng.Float64() < holes {
			w++ // a cold field inside the hot region
		}
	}
	return out
}

func profileHash(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// Lines returns the total number of distinct writeback lines the generator
// can touch (read misses use a region above this).
func (g *Generator) Lines() int { return len(g.lines) }

// Stats returns the number of writebacks and reads generated so far.
func (g *Generator) Stats() (writebacks, reads uint64) {
	return g.writebacks, g.reads
}

// pickLine chooses a line index within one CPU's region with the profile's
// hot/cold skew.
func (g *Generator) pickLine(cpu int) uint64 {
	n := g.cfg.LinesPerCPU
	hot := int(math.Ceil(g.prof.HotFrac * float64(n)))
	var idx int
	if g.rng.Float64() < g.prof.HotWeight {
		idx = g.rng.Intn(hot)
	} else {
		idx = g.rng.Intn(n)
	}
	return uint64(cpu*n + idx)
}

// footprintOf lazily builds a line's stable footprint.
func (g *Generator) footprintOf(ls *lineState) []int {
	if ls.footprint != nil {
		return ls.footprint
	}
	fp := make([]int, g.prof.FootprintWords)
	for i := range fp {
		if g.rng.Float64() < g.prof.FootprintCorr {
			fp[i] = g.base[i]
		} else {
			// Uncorrelated slots stay near the base offset: a
			// different object layout still clusters its hot
			// fields (keeps coarse tracking realistic, Figure 8).
			fp[i] = (g.base[i] + 1 + g.rng.Intn(6)) % wordsPerLine
		}
	}
	ls.footprint = fp
	return fp
}

// poisson draws a Poisson variate (Knuth's method; lambdas here are small).
func (g *Generator) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // numerically unreachable for our lambdas
		}
	}
}

// mutateWord evolves the 2-byte word at index w of data per the value model.
func (g *Generator) mutateWord(data []byte, w int) {
	off := w * wordBytes
	cur := binary.LittleEndian.Uint16(data[off:])
	switch g.prof.Model {
	case ValueCounter:
		cur += uint16(1 + g.rng.Intn(3))
	case ValueFloat:
		// Mantissa churn: flip probability decays with bit position.
		var mask uint16
		for b := 0; b < 16; b++ {
			p := g.prof.BitDensity * (1 - float64(b)/20)
			if p > 0 && g.rng.Float64() < p {
				mask |= 1 << b
			}
		}
		if mask == 0 {
			mask = 1
		}
		cur ^= g.narrow(mask)
	default: // ValueRandom
		var mask uint16
		for b := 0; b < 16; b++ {
			if g.rng.Float64() < g.prof.BitDensity {
				mask |= 1 << b
			}
		}
		if mask == 0 {
			mask = 1 << uint(g.rng.Intn(16))
		}
		cur ^= g.narrow(mask)
	}
	binary.LittleEndian.PutUint16(data[off:], cur)
}

// singleByteProb is the fraction of word updates that touch only one byte
// of the 2-byte word (small stores: chars, flags, byte counters). This is
// what gives 1-byte tracking its edge in the paper's Figure 8.
const singleByteProb = 0.4

// narrow sometimes confines a flip mask to a single byte of the word.
func (g *Generator) narrow(mask uint16) uint16 {
	if g.rng.Float64() >= singleByteProb {
		return mask
	}
	if g.rng.Intn(2) == 0 {
		mask &= 0x00ff
	} else {
		mask &= 0xff00
	}
	if mask == 0 {
		mask = 1 << uint(g.rng.Intn(16))
	}
	return mask
}

// NextWriteback synthesizes the next writeback for the given CPU and
// returns the line index and the full new 64-byte payload. The returned
// slice is owned by the caller.
func (g *Generator) NextWriteback(cpu int) (uint64, []byte) {
	if cpu < 0 || cpu >= g.cfg.CPUs {
		panic(fmt.Sprintf("workload: cpu %d out of range [0,%d)", cpu, g.cfg.CPUs))
	}
	line := g.pickLine(cpu)
	ls := &g.lines[line]
	if ls.data == nil {
		ls.data = make([]byte, LineBytes)
		g.rng.Read(ls.data) // lines start with arbitrary contents
		if g.cfg.FirstTouch != nil {
			initial := make([]byte, LineBytes)
			copy(initial, ls.data)
			g.cfg.FirstTouch(line, initial)
		}
	}

	if g.prof.Dense {
		p := g.prof.WordsPerWrite / wordsPerLine
		touched := 0
		for w := 0; w < wordsPerLine; w++ {
			if g.rng.Float64() < p {
				g.mutateWord(ls.data, w)
				touched++
			}
		}
		if touched == 0 {
			g.mutateWord(ls.data, g.rng.Intn(wordsPerLine))
		}
	} else {
		fp := g.footprintOf(ls)
		n := 1 + g.poisson(g.prof.WordsPerWrite-1)
		for i := 0; i < n; i++ {
			var w int
			if g.rng.Float64() < g.prof.Drift {
				w = g.rng.Intn(wordsPerLine)
			} else {
				w = fp[g.rng.Intn(len(fp))]
			}
			g.mutateWord(ls.data, w)
		}
	}

	g.writebacks++
	out := make([]byte, LineBytes)
	copy(out, ls.data)
	return line, out
}

// Next implements trace.Source: an endless interleaved stream of read
// misses and writebacks at the profile's MPKI/WBPKI ratio, with
// exponentially distributed instruction gaps. Callers decide when to stop.
func (g *Generator) Next() (trace.Event, error) {
	cpu := g.nextCPU
	g.nextCPU = (g.nextCPU + 1) % g.cfg.CPUs

	// Mean instructions between this CPU's memory events.
	meanGap := 1000 / (g.prof.MPKI + g.prof.WBPKI)
	gap := uint32(g.rng.ExpFloat64() * meanGap)

	if g.rng.Float64() < g.eventProb {
		g.reads++
		// Read misses target a disjoint region above the writeback
		// lines (streaming loads dominate L4 read misses).
		line := uint64(len(g.lines)) + g.pickLine(cpu)
		return trace.Event{Kind: trace.Read, Line: line, CPU: uint8(cpu), Gap: gap}, nil
	}
	line, data := g.NextWriteback(cpu)
	return trace.Event{Kind: trace.Writeback, Line: line, CPU: uint8(cpu), Gap: gap, Data: data}, nil
}

var _ trace.Source = (*Generator)(nil)
