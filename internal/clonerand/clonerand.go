// Package clonerand is a cloneable copy of math/rand's deterministic stream.
//
// The workload generators (internal/workload) draw every stochastic decision
// from one stream seeded by the run's seed; the warm-state reuse layer
// (internal/exp) needs to snapshot a generator after warmup and continue the
// identical stream independently in several forked copies. math/rand's
// rngSource keeps its ~5 KB of state unexported with no copy API, so this
// package carries a concrete port of it instead: the same additive
// lagged-Fibonacci register (607 words plus the tap and feed indices),
// held by value, so Clone is a plain O(1) copy of the state. The draw
// methods (Int63, Float64, Intn, Int31n, Read, ...) are line-for-line ports
// of math/rand's algorithms on that state, called directly rather than
// through the rand.Source interface, which is what makes them cheap enough
// for the generators' per-bit draws.
//
// No seeding table is copied: New recovers the seeded register from
// rand.NewSource(seed) itself (see seeded), so the port cannot drift from
// the standard library's seeding.
//
// The contract that everything downstream rests on: a clonerand.Rand seeded
// with s produces the bit-identical value stream to rand.New(rand.NewSource(s))
// for every method the generators use (Int63, Intn, Float64, ExpFloat64,
// Read, ...), and a Clone continues exactly where its original stood at
// clone time while the two advance independently afterwards. The
// differential suite in clonerand_test.go pins both properties; changing
// the stream would silently shift every measured workload statistic and
// invalidate the calibrated fidelity tolerances (internal/fidelity).
//
// Concurrency: a Rand is single-owner state with no internal locking —
// exactly like math/rand.Rand built on an unlocked source. Goroutines
// never share one; a consumer that needs an independent stream takes a
// Clone and owns it outright.
package clonerand

import "math/rand"

// The register geometry of math/rand's rngSource.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// source is math/rand's rngSource with its state in the open: every step
// moves tap and feed down one slot (mod rngLen) and adds vec[tap] into
// vec[feed], returning the sum.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// seeded returns the register rand.NewSource(seed) starts from. rngSource
// seeds to tap 0, feed rngLen-rngTap, and over the next rngLen steps feed
// visits every slot exactly once, so one cycle of its outputs is the whole
// register after the cycle. Undoing the cycle's additions in reverse order
// then walks the register back to the seeded state.
func seeded(seed int64) source {
	ref := rand.NewSource(seed).(rand.Source64)
	s := source{tap: 0, feed: rngLen - rngTap}
	for i := 0; i < rngLen; i++ {
		s.back()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap++
		if s.tap == rngLen {
			s.tap = 0
		}
		s.feed++
		if s.feed == rngLen {
			s.feed = 0
		}
	}
	return s
}

// back moves tap and feed to the slots the next step uses.
func (s *source) back() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 advances the register one step: rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.back()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Seed is required by rand.Source but must not be called: a Rand is seeded
// once, at New, and reseeding the shared state behind ExpFloat64 would
// desynchronize it from the concrete draw methods.
func (s *source) Seed(int64) {
	panic("clonerand: Seed after construction is not supported")
}

// Rand is a cloneable stream bit-identical to math/rand's. The uniform
// draws run directly on the register; ExpFloat64 (ziggurat tables and all)
// is served by a rand.Rand built over the same register.
type Rand struct {
	src source

	// readVal/readPos are rand.Rand's byte carry across Read calls (seven
	// bytes are served per Int63 draw), held here so Clone copies them.
	readVal int64
	readPos int8

	// exp is a rand.Rand over &src, used only for ExpFloat64.
	exp *rand.Rand
}

// New returns a Rand whose value stream is bit-identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := &Rand{src: seeded(seed)}
	r.exp = rand.New(&r.src)
	return r
}

// Clone returns an independent Rand positioned at exactly this Rand's
// stream state: it will produce the same future values, and advancing
// either copy does not affect the other. The cost is one copy of the
// ~4.9 KB register, whatever the stream position.
func (r *Rand) Clone() *Rand {
	c := &Rand{src: r.src, readVal: r.readVal, readPos: r.readPos}
	c.exp = rand.New(&c.src)
	return c
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Int31 returns a non-negative pseudo-random 31-bit integer as an int32.
func (r *Rand) Int31() int32 { return int32(r.src.Int63() >> 32) }

// Int63n returns a non-negative pseudo-random number in [0,n). It panics if
// n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns a non-negative pseudo-random number in [0,n). It panics if
// n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns a non-negative pseudo-random number in [0,n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a pseudo-random number in [0.0,1.0).
func (r *Rand) Float64() float64 {
	for {
		f := float64(r.src.Int63()) / (1 << 63)
		if f != 1 { // f == 1 resamples; taken O(never)
			return f
		}
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// drawing from the same register as every other method.
func (r *Rand) ExpFloat64() float64 { return r.exp.ExpFloat64() }

// Read fills p with random bytes, continuing any partially-consumed draw
// from the previous Read. The algorithm is math/rand's: each Int63 supplies
// seven bytes, the leftover carries to the next call. It always returns
// len(p) and a nil error.
func (r *Rand) Read(p []byte) (int, error) {
	pos := r.readPos
	val := r.readVal
	for n := 0; n < len(p); n++ {
		if pos == 0 {
			val = r.src.Int63()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.readPos = pos
	r.readVal = val
	return len(p), nil
}
