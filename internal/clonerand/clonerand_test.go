package clonerand

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// drive runs a fixed interleaving of every method the workload generators
// use against an abstract rand surface, returning a transcript. The Read
// lengths deliberately leave partial draws behind (64, 3, 1 bytes) so the
// cross-call byte carry is exercised.
type surface interface {
	Int63() int64
	Int31n(int32) int32
	Int63n(int64) int64
	Intn(int) int
	Float64() float64
	ExpFloat64() float64
	Read([]byte) (int, error)
}

func drive(r surface, rounds int) []byte {
	var out bytes.Buffer
	buf := make([]byte, 64)
	for i := 0; i < rounds; i++ {
		out.WriteByte(byte(r.Int63()))
		out.WriteByte(byte(r.Intn(97)))
		var f float64
		f = r.Float64()
		out.WriteByte(byte(uint64(f * (1 << 32))))
		f = r.ExpFloat64()
		out.WriteByte(byte(uint64(f * 1024)))
		for _, n := range []int{64, 3, 1} {
			r.Read(buf[:n])
			out.Write(buf[:n])
		}
	}
	return out.Bytes()
}

// mixed makes n draws from r in a seed-independent pattern that covers
// every method, including rejection-sampling bounds (Int31n and Int63n
// with n just above a power of two reject almost half the draws), the
// power-of-two mask paths, Intn's 63-bit branch and odd Read lengths. It
// folds every returned value into the returned digest, so two surfaces
// agree only if every value of every draw agreed.
func mixed(r surface, n int) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	buf := make([]byte, 13)
	for i := 0; i < n; i++ {
		switch i % 9 {
		case 0:
			mix(uint64(r.Int63()))
		case 1:
			mix(math.Float64bits(r.Float64()))
		case 2:
			mix(uint64(r.Intn(1 + i%1000)))
		case 3:
			mix(uint64(r.Int31n(1<<30 + 1)))
		case 4:
			mix(uint64(r.Int63n(1<<62 + 1)))
		case 5:
			mix(uint64(r.Intn(1 << 40)))
		case 6:
			mix(uint64(r.Int31n(64)))
		case 7:
			mix(math.Float64bits(r.ExpFloat64()))
		case 8:
			k, _ := r.Read(buf[:1+i%13])
			for _, b := range buf[:k] {
				mix(uint64(b))
			}
		}
	}
	return h
}

// seeds covers the seeding edge cases: zero (rngSource substitutes a fixed
// seed), negatives, values that wrap mod 2^31-1 to zero or to each other,
// and the int64 extremes.
var seeds = []int64{
	0, 1, 2, -1, -7, 42, 1234567891011,
	math.MaxInt32, math.MaxInt32 - 1, 2 * (math.MaxInt32 - 1),
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	-1234567891011, 89482311, 1 << 40,
}

// TestMatchesMathRand pins the package contract: for the same seed, the
// value stream is bit-identical to math/rand's across every method the
// workload generators call, including Read's cross-call carry, for over
// a million mixed draws per seed (thousands of 607-step register cycles).
// If this fails, every calibrated fidelity tolerance in internal/fidelity
// is invalid — fix the port, never re-record the expectations.
func TestMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	for _, seed := range seeds {
		if !bytes.Equal(drive(rand.New(rand.NewSource(seed)), 200), drive(New(seed), 200)) {
			t.Fatalf("seed %d: interleaved stream diverges from math/rand", seed)
		}
		if ref, got := mixed(rand.New(rand.NewSource(seed)), draws), mixed(New(seed), draws); ref != got {
			t.Fatalf("seed %d: %d mixed draws diverge from math/rand", seed, draws)
		}
	}
}

// TestCloneAtDepth: a clone taken after any number of draws — none, one,
// one short of a full register cycle, exactly one cycle, and far past
// it — continues the reference stream exactly, and so does its original.
func TestCloneAtDepth(t *testing.T) {
	for _, depth := range []int{0, 1, 606, 607, 100_000} {
		ref := rand.New(rand.NewSource(99))
		orig := New(99)
		for i := 0; i < depth; i++ {
			ref.Int63()
			orig.Int63()
		}
		cl := orig.Clone()
		want := mixed(ref, 20_000)
		if got := mixed(cl, 20_000); got != want {
			t.Errorf("clone at depth %d diverges from math/rand", depth)
		}
		if got := mixed(orig, 20_000); got != want {
			t.Errorf("original cloned at depth %d diverges from math/rand", depth)
		}
	}
}

// TestCloneContinues: a clone taken mid-stream must produce the same
// future values as the original, and the two must advance independently.
func TestCloneContinues(t *testing.T) {
	orig := New(42)
	drive(orig, 50) // consume an arbitrary prefix, leaving a Read carry

	cl := orig.Clone()
	a := drive(orig, 50)
	b := drive(cl, 50)
	if !bytes.Equal(a, b) {
		t.Fatal("clone diverges from original after the fork point")
	}

	// Independence: advancing a clone must not move the original.
	cl2 := orig.Clone()
	drive(cl2, 10)
	c := drive(orig, 10)
	ref := New(42)
	drive(ref, 100) // the original has consumed 100 rounds so far
	d := drive(ref, 10)
	if !bytes.Equal(c, d) {
		t.Fatal("advancing a clone perturbed the original's stream")
	}
}

// TestCloneOfClone: cloning must compose — a clone of a clone continues
// the same stream.
func TestCloneOfClone(t *testing.T) {
	r := New(7)
	drive(r, 20)
	c1 := r.Clone()
	drive(c1, 20)
	c2 := c1.Clone()
	if !bytes.Equal(drive(c1, 20), drive(c2, 20)) {
		t.Fatal("clone of clone diverges")
	}
}

// TestSeedPanics: a Rand is seeded once, at New. Reseeding the register,
// directly or through the rand.Rand that serves ExpFloat64, would move
// that shared state behind the concrete draw methods' back.
func TestSeedPanics(t *testing.T) {
	for name, reseed := range map[string]func(r *Rand){
		"source":     func(r *Rand) { r.src.Seed(2) },
		"ExpFloat64": func(r *Rand) { r.exp.Seed(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Seed via %s did not panic", name)
				}
			}()
			reseed(New(1))
		}()
	}
}

// TestDrawsDoNotAllocate: the concrete draw methods run on the register
// in place.
func TestDrawsDoNotAllocate(t *testing.T) {
	r := New(3)
	buf := make([]byte, 9)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Float64()
		r.Intn(1000)
		r.ExpFloat64()
		r.Read(buf)
	})
	if allocs != 0 {
		t.Errorf("draws allocate %.1f times per call", allocs)
	}
}

// BenchmarkFloat64 times the generators' most frequent draw.
func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Float64()
	}
	_ = s
}
