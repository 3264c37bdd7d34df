package workload

import (
	"math"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/trace"
)

func TestProfilesValid(t *testing.T) {
	ps := SPEC2006()
	if len(ps) != 12 {
		t.Fatalf("got %d profiles, want 12 (Table 2)", len(ps))
	}
	for _, p := range ps {
		if err := p.validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	// Table 2 ordering: WBPKI descending.
	for i := 1; i < len(ps); i++ {
		if ps[i].WBPKI > ps[i-1].WBPKI {
			t.Errorf("profiles out of WBPKI order at %s", ps[i].Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Errorf("ByName(mcf) = %+v, %v", p.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(Names()) != 12 {
		t.Errorf("Names() has %d entries", len(Names()))
	}
}

func TestValidationRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("mcf")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.FootprintWords = 0 },
		func(p *Profile) { p.FootprintWords = 33 },
		func(p *Profile) { p.WordsPerWrite = 0 },
		func(p *Profile) { p.Drift = 1.5 },
		func(p *Profile) { p.HotFrac = 0 },
		func(p *Profile) { p.WBPKI = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if _, err := New(p, Config{}); err == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ByName("mcf")
	g1 := MustNew(p, Config{Seed: 7})
	g2 := MustNew(p, Config{Seed: 7})
	for i := 0; i < 200; i++ {
		l1, d1 := g1.NextWriteback(0)
		l2, d2 := g2.NextWriteback(0)
		if l1 != l2 || !bitutil.Equal(d1, d2) {
			t.Fatalf("streams diverged at writeback %d", i)
		}
	}
	// Different seed: different stream.
	g3 := MustNew(p, Config{Seed: 8})
	same := 0
	for i := 0; i < 50; i++ {
		l1, _ := g1.NextWriteback(0)
		l3, _ := g3.NextWriteback(0)
		if l1 == l3 {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical line sequences")
	}
}

// Every writeback must actually change the line relative to the previous
// content of that line (cache writebacks of dirty lines).
func TestWritebacksChangeData(t *testing.T) {
	p, _ := ByName("omnetpp")
	g := MustNew(p, Config{Seed: 1, LinesPerCPU: 64})
	prev := make(map[uint64][]byte)
	for i := 0; i < 2000; i++ {
		line, data := g.NextWriteback(0)
		if old, ok := prev[line]; ok {
			if bitutil.Equal(old, data) {
				t.Fatalf("writeback %d to line %d did not change the line", i, line)
			}
		}
		prev[line] = data
	}
}

// The mean modified-bit fraction (DCW cost) must sit in the benchmark's
// calibrated band, and the per-benchmark densities must produce the paper's
// global ~12% average.
func TestWriteDensityCalibration(t *testing.T) {
	var overall float64
	ps := SPEC2006()
	for _, p := range ps {
		g := MustNew(p, Config{Seed: 3, LinesPerCPU: 512})
		prev := make(map[uint64][]byte)
		var flips, writes int
		for i := 0; i < 8000; i++ {
			line, data := g.NextWriteback(0)
			if old, ok := prev[line]; ok {
				flips += bitutil.Hamming(old, data)
				writes++
			}
			prev[line] = data
		}
		frac := float64(flips) / float64(writes*512)
		overall += frac
		if frac < 0.005 || frac > 0.45 {
			t.Errorf("%s: DCW flip fraction %.3f outside plausible band", p.Name, frac)
		}
		// Dense benchmarks must be much denser than sparse ones.
		if p.Dense && frac < 0.15 {
			t.Errorf("%s: dense benchmark only %.3f", p.Name, frac)
		}
		if !p.Dense && frac > 0.25 {
			t.Errorf("%s: sparse benchmark at %.3f", p.Name, frac)
		}
	}
	avg := overall / float64(len(ps))
	// Paper: 12.2% average for DCW on unencrypted memory (Figure 5).
	if math.Abs(avg-0.122) > 0.04 {
		t.Errorf("average DCW fraction = %.3f, want 0.122±0.04", avg)
	}
}

// libq's counter model must concentrate flips on low bit positions of its
// footprint words (the 27x skew driver of Figure 12).
func TestCounterModelBitSkew(t *testing.T) {
	p, _ := ByName("libq")
	g := MustNew(p, Config{Seed: 5, LinesPerCPU: 128})
	pos := make([]uint64, 512)
	prev := make(map[uint64][]byte)
	var writes uint64
	for i := 0; i < 20000; i++ {
		line, data := g.NextWriteback(0)
		if old, ok := prev[line]; ok {
			for b := 0; b < 512; b++ {
				if bitutil.GetBit(old, b) != bitutil.GetBit(data, b) {
					pos[b]++
				}
			}
			writes++
		}
		prev[line] = data
	}
	var max, sum uint64
	for _, c := range pos {
		sum += c
		if c > max {
			max = c
		}
	}
	skew := float64(max) / (float64(sum) / 512)
	if skew < 10 {
		t.Errorf("libq bit-position skew = %.1f, want >10 (paper: 27x)", skew)
	}
}

func TestEventStreamRates(t *testing.T) {
	p, _ := ByName("libq") // MPKI 22.9, WBPKI 9.78
	g := MustNew(p, Config{Seed: 2, CPUs: 4, LinesPerCPU: 256})
	var reads, wbs int
	for i := 0; i < 20000; i++ {
		e, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case trace.Read:
			reads++
			if e.Data != nil {
				t.Fatal("read event carries data")
			}
		case trace.Writeback:
			wbs++
			if len(e.Data) != 64 {
				t.Fatalf("writeback payload %d bytes", len(e.Data))
			}
		}
		if e.CPU > 3 {
			t.Fatalf("event on cpu %d", e.CPU)
		}
	}
	ratio := float64(reads) / float64(wbs)
	want := 22.9 / 9.78
	if math.Abs(ratio-want)/want > 0.1 {
		t.Errorf("read/writeback ratio = %.2f, want %.2f", ratio, want)
	}
	w, r := g.Stats()
	if int(w) != wbs || int(r) != reads {
		t.Error("Stats disagrees with observed events")
	}
}

// Read misses must never alias the writeback region (they model streaming
// loads, not RMW traffic).
func TestReadRegionDisjoint(t *testing.T) {
	p, _ := ByName("astar")
	g := MustNew(p, Config{Seed: 9, LinesPerCPU: 100})
	for i := 0; i < 5000; i++ {
		e, _ := g.Next()
		if e.Kind == trace.Read && e.Line < uint64(g.Lines()) {
			t.Fatalf("read miss inside writeback region: line %d", e.Line)
		}
		if e.Kind == trace.Writeback && e.Line >= uint64(g.Lines()) {
			t.Fatalf("writeback outside its region: line %d", e.Line)
		}
	}
}

// CPUs write disjoint line regions in rate mode.
func TestCPURegionsDisjoint(t *testing.T) {
	p, _ := ByName("mcf")
	g := MustNew(p, Config{Seed: 4, CPUs: 2, LinesPerCPU: 100})
	for i := 0; i < 1000; i++ {
		line, _ := g.NextWriteback(0)
		if line >= 100 {
			t.Fatalf("cpu0 wrote line %d", line)
		}
		line, _ = g.NextWriteback(1)
		if line < 100 || line >= 200 {
			t.Fatalf("cpu1 wrote line %d", line)
		}
	}
}

func TestValueModelString(t *testing.T) {
	if ValueRandom.String() != "random" || ValueCounter.String() != "counter" || ValueFloat.String() != "float" {
		t.Error("ValueModel.String mismatch")
	}
}

// BenchmarkNextWriteback times the generator's writeback synthesis, the
// workload layer under every flip and wear cell, for one profile of each
// value model (random, float, counter) and the dense Gems rewrite.
func BenchmarkNextWriteback(b *testing.B) {
	for _, name := range []string{"mcf", "lbm", "libq", "Gems"} {
		b.Run(name, func(b *testing.B) {
			p, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := MustNew(p, Config{Seed: 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.NextWriteback(0)
			}
			if wb, _ := g.Stats(); wb != uint64(b.N) {
				b.Fatalf("generated %d writebacks, want %d", wb, b.N)
			}
		})
	}
}
