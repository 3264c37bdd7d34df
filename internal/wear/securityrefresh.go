package wear

import (
	"fmt"
	"math/rand"

	"deuce/internal/pcmdev"
)

// SecurityRefresh implements the other vertical wear-leveling algorithm the
// paper names in §5.2: Security Refresh (Seong, Woo & Lee, ISCA 2010).
// Lines are remapped by XOR-ing the address with a secret key; a refresh
// pointer sweeps the address space swapping lines pairwise from the current
// key's mapping to the next key's, and when a sweep completes a fresh
// random key is drawn. Unlike Start-Gap's deterministic rotation, the
// mapping is unpredictable to an attacker without the keys.
//
// The XOR structure makes remapping pairwise: logical lines LA and LA⊕d
// (d = kc⊕kn) exchange physical slots when the pointer processes their
// pair. A line is "processed" this round when its pair's canonical index
// (min of the two) is below the pointer.
//
// The paper's Horizontal Wear Leveling extension applies here exactly as
// it does to Start-Gap: each line is physically rewritten once per round
// (its pair swap), which is the free moment to advance its intra-line
// rotation. Rotation amounts derive from the line's completed-round count,
// plainly or hashed (footnote 2).
type SecurityRefresh struct {
	inner *pcmdev.Device
	cfg   StartGapConfig // Psi/Mode/FreeGapMoves are shared semantics
	rng   *rand.Rand

	n    int // lines, power of two
	mask uint64
	kc   uint64 // current key
	kn   uint64 // next key
	p    uint64 // refresh pointer over canonical pair indices

	rounds          uint64 // completed sweeps
	writesSinceStep int
	swaps           uint64

	rot      *rotator // HWL shifter and image scratch
	flips    []int    // SlotFlips of the last Write, kept across its step
	pairData []byte   // one line of the pair a step swaps
	pairMeta []byte
}

// NewSecurityRefresh builds a Security Refresh array over the logical
// geometry in devCfg. The line count must be a power of two (XOR
// remapping); seed makes the key sequence deterministic for experiments.
func NewSecurityRefresh(devCfg pcmdev.Config, cfg StartGapConfig, seed int64) (*SecurityRefresh, error) {
	if cfg.Psi == 0 {
		cfg.Psi = DefaultPsi
	}
	if cfg.Psi < 1 {
		return nil, fmt.Errorf("wear: Psi must be positive, got %d", cfg.Psi)
	}
	switch cfg.Mode {
	case VWLOnly, HWL, HWLHashed:
	default:
		return nil, fmt.Errorf("wear: unknown mode %d", int(cfg.Mode))
	}
	if devCfg.Lines < 2 || devCfg.Lines&(devCfg.Lines-1) != 0 {
		return nil, fmt.Errorf("wear: SecurityRefresh needs a power-of-two line count, got %d", devCfg.Lines)
	}
	inner, err := pcmdev.New(devCfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &SecurityRefresh{
		inner: inner,
		cfg:   cfg,
		rng:   rng,
		n:     devCfg.Lines,
		mask:  uint64(devCfg.Lines - 1),
		kc:    0, // identity mapping at boot: fresh array reads back zeroes
		rot:   newRotator(inner.Config()),
	}
	s.pairData = make([]byte, s.rot.lineBytes)
	s.pairMeta = make([]byte, s.rot.metaBytes)
	s.kn = s.freshKey()
	return s, nil
}

// MustNewSecurityRefresh is NewSecurityRefresh for valid configurations.
func MustNewSecurityRefresh(devCfg pcmdev.Config, cfg StartGapConfig, seed int64) *SecurityRefresh {
	s, err := NewSecurityRefresh(devCfg, cfg, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// freshKey draws a non-degenerate next key (kn != kc keeps pairs disjoint).
func (s *SecurityRefresh) freshKey() uint64 {
	for {
		k := uint64(s.rng.Intn(s.n))
		if k != s.kc {
			return k
		}
	}
}

// processed reports whether the line's pair has been remapped this round.
func (s *SecurityRefresh) processed(line uint64) bool {
	d := s.kc ^ s.kn
	canon := line
	if other := line ^ d; other < canon {
		canon = other
	}
	return canon < s.p
}

// physical maps a logical line to its current physical slot.
func (s *SecurityRefresh) physical(line uint64) uint64 {
	if s.processed(line) {
		return line ^ s.kn
	}
	return line ^ s.kc
}

// roundsOf returns the number of times the line has been physically
// rewritten by refresh sweeps (the HWL rotation counter).
func (s *SecurityRefresh) roundsOf(line uint64) uint64 {
	if s.processed(line) {
		return s.rounds + 1
	}
	return s.rounds
}

// rotation returns the line's current intra-line rotation amount.
func (s *SecurityRefresh) rotation(line uint64) int {
	switch s.cfg.Mode {
	case HWL:
		return int(s.roundsOf(line) % uint64(s.rot.n))
	case HWLHashed:
		return int(mix64(s.roundsOf(line), line) % uint64(s.rot.n))
	default:
		return 0
	}
}

func (s *SecurityRefresh) metaOrNil(m []byte) []byte {
	if s.inner.Config().MetaBits == 0 {
		return nil
	}
	return m
}

// Write implements pcmdev.Array.
func (s *SecurityRefresh) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	s.checkLine(line)
	rdata, rmeta := s.rot.rotate(data, meta, s.rotation(line))
	res := s.inner.Write(s.physical(line), rdata, s.metaOrNil(rmeta))

	s.writesSinceStep++
	if s.writesSinceStep >= s.cfg.Psi {
		s.writesSinceStep = 0
		if !s.cfg.FreeGapMoves {
			// The pair-swap below writes the inner device again,
			// clobbering the scratch buffer res.SlotFlips aliases.
			s.flips = append(s.flips[:0], res.SlotFlips...)
			res.SlotFlips = s.flips
		}
		s.step()
	}
	return res
}

// Read implements pcmdev.Array. The returned slices are the caller's.
func (s *SecurityRefresh) Read(line uint64) (data, meta []byte) {
	data, meta = make([]byte, s.rot.lineBytes), make([]byte, s.rot.metaBytes)
	s.ReadInto(line, data, meta)
	return data, meta
}

// Peek implements pcmdev.Array. The returned slices are the caller's.
func (s *SecurityRefresh) Peek(line uint64) (data, meta []byte) {
	data, meta = make([]byte, s.rot.lineBytes), make([]byte, s.rot.metaBytes)
	s.PeekInto(line, data, meta)
	return data, meta
}

// PeekInto implements pcmdev.Array. The de-rotation runs in the array's
// scratch buffers, so it does not allocate.
func (s *SecurityRefresh) PeekInto(line uint64, data, meta []byte) {
	s.checkLine(line)
	s.inner.PeekInto(s.physical(line), s.rot.data, s.rot.meta)
	s.rot.unrotateInto(data, meta, s.rotation(line))
}

// ReadInto implements pcmdev.Array: PeekInto with Read's statistics side
// effect, and likewise allocation-free.
func (s *SecurityRefresh) ReadInto(line uint64, data, meta []byte) {
	s.checkLine(line)
	s.inner.ReadInto(s.physical(line), s.rot.data, s.rot.meta)
	s.rot.unrotateInto(data, meta, s.rotation(line))
}

// Load implements pcmdev.Array.
func (s *SecurityRefresh) Load(line uint64, data, meta []byte) {
	s.checkLine(line)
	rdata, rmeta := s.rot.rotate(data, meta, s.rotation(line))
	s.inner.Load(s.physical(line), rdata, s.metaOrNil(rmeta))
}

// step processes one canonical pair: the two logical lines of the pair
// exchange physical slots (moving from the kc mapping to kn), acquiring
// their next rotation amounts in the same rewrite.
func (s *SecurityRefresh) step() {
	d := s.kc ^ s.kn
	// Advance past indices that are not canonical (their pair partner is
	// smaller and was processed when the pointer passed it).
	for s.p < uint64(s.n) && (s.p^d) < s.p {
		s.p++
	}
	if s.p >= uint64(s.n) {
		s.completeRound()
		return
	}
	a := s.p // canonical line of the pair; partner is a^d
	b := a ^ d

	// Pre-swap images. Peeking b stages through the shifter's data and
	// meta buffers, which then hold b's image, so a's goes to the pair
	// buffers; the stores below rotate into the shifter's separate
	// output buffer.
	da, ma := s.pairData, s.pairMeta
	db, mb := s.rot.data, s.rot.meta
	s.PeekInto(a, da, ma)
	s.PeekInto(b, db, mb)
	s.p++ // the pair is now processed: mappings and rotations advance
	s.swaps++

	s.storeAt(a, da, ma)
	s.storeAt(b, db, mb)

	if s.p >= uint64(s.n) {
		s.completeRound()
	}
}

// storeAt writes a logical line's plaintext image at its *current* mapping
// with its current rotation, bypassing cost accounting when configured
// (same FreeGapMoves semantics as Start-Gap).
func (s *SecurityRefresh) storeAt(line uint64, data, meta []byte) {
	rdata, rmeta := s.rot.rotate(data, meta, s.rotation(line))
	if s.cfg.FreeGapMoves {
		s.inner.Load(s.physical(line), rdata, s.metaOrNil(rmeta))
		return
	}
	s.inner.Write(s.physical(line), rdata, s.metaOrNil(rmeta))
}

// completeRound retires the current key and draws the next.
func (s *SecurityRefresh) completeRound() {
	s.kc = s.kn
	s.kn = s.freshKey()
	s.p = 0
	s.rounds++
}

// Config implements pcmdev.Array.
func (s *SecurityRefresh) Config() pcmdev.Config { return s.inner.Config() }

// Stats implements pcmdev.Array.
func (s *SecurityRefresh) Stats() pcmdev.Stats { return s.inner.Stats() }

// ResetStats implements pcmdev.Array.
func (s *SecurityRefresh) ResetStats() { s.inner.ResetStats() }

// PositionWrites implements pcmdev.Array.
func (s *SecurityRefresh) PositionWrites() []uint64 { return s.inner.PositionWrites() }

// LineWrites implements pcmdev.Array: physical per-line write counts.
func (s *SecurityRefresh) LineWrites() []uint64 { return s.inner.LineWrites() }

// Rounds returns completed refresh sweeps.
func (s *SecurityRefresh) Rounds() uint64 { return s.rounds }

// Swaps returns pair swaps performed.
func (s *SecurityRefresh) Swaps() uint64 { return s.swaps }

func (s *SecurityRefresh) checkLine(line uint64) {
	if line >= uint64(s.n) {
		panic(fmt.Sprintf("wear: logical line %d out of range [0,%d)", line, s.n))
	}
}

var _ pcmdev.Array = (*SecurityRefresh)(nil)

// InnerDevice exposes the physical array for wear analysis.
func (s *SecurityRefresh) InnerDevice() *pcmdev.Device { return s.inner }
