package wear

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// rotateBitsRef is the bit-at-a-time HWL rotation the word-wise rotateBits
// replaced, kept as the reference it must match: it rotates the first n
// bits of img left by k, leaving padding zero.
func rotateBitsRef(img []byte, n, k int) []byte {
	out := make([]byte, len(img))
	k = ((k % n) + n) % n
	for i := 0; i < n; i++ {
		if bitutil.GetBit(img, i) {
			bitutil.SetBit(out, (i+k)%n, true)
		}
	}
	return out
}

// rotateImageRef is the reference for rotator.rotate: pack data and the
// first MetaBits of meta bit by bit, rotate, unpack into fresh slices.
func rotateImageRef(cfg pcmdev.Config, data, meta []byte, k int) (rdata, rmeta []byte) {
	if k == 0 {
		return bitutil.Clone(data), bitutil.Clone(meta)
	}
	totalBits := cfg.TotalBitsPerLine()
	img := make([]byte, (totalBits+7)/8)
	copy(img, data)
	for i := 0; i < cfg.MetaBits; i++ {
		bitutil.SetBit(img, cfg.LineBits()+i, bitutil.GetBit(meta, i))
	}
	rot := rotateBitsRef(img, totalBits, k)
	rdata = make([]byte, cfg.LineBytes)
	copy(rdata, rot[:cfg.LineBytes])
	rmeta = make([]byte, (cfg.MetaBits+7)/8)
	for i := 0; i < cfg.MetaBits; i++ {
		bitutil.SetBit(rmeta, i, bitutil.GetBit(rot, cfg.LineBits()+i))
	}
	return rdata, rmeta
}

// checkRotateBits compares rotateBits with the reference on an n-bit image
// drawn from seed, failing with the first difference.
func checkRotateBits(t *testing.T, seed int64, n, k int) {
	t.Helper()
	words := (n + 63) / 64
	img := make([]byte, 8*words)
	rand.New(rand.NewSource(seed)).Read(img[:(n+7)/8])
	if tail := n & 7; tail != 0 {
		img[n/8] &= 1<<tail - 1
	}
	src := make([]uint64, words)
	for i := range src {
		src[i] = binary.LittleEndian.Uint64(img[8*i:])
	}
	dst := make([]uint64, words)
	for i := range dst {
		dst[i] = ^uint64(0) // stale scratch must not leak through
	}
	rotateBits(dst, src, n, k)
	got := make([]byte, 8*words)
	for i, w := range dst {
		binary.LittleEndian.PutUint64(got[8*i:], w)
	}
	if want := rotateBitsRef(img, n, k); !bytes.Equal(got, want) {
		t.Fatalf("rotateBits(n=%d, k=%d, seed=%d) = %x, want %x", n, k, seed, got, want)
	}
}

// FuzzRotateBits differentially checks the word-wise rotation against the
// bit-by-bit reference: the inputs map onto every n in 1..1024 and every k
// in -2n..2n, with a random image per seed.
func FuzzRotateBits(f *testing.F) {
	for _, c := range []struct {
		seed int64
		n, k uint16
	}{
		{1, 0, 0}, {2, 63, 0}, {3, 63, 1}, {4, 64, 65}, {5, 539, 1000},
		{6, 539, 2}, {7, 1023, 4095}, {8, 127, 300}, {9, 600, 3},
	} {
		f.Add(c.seed, c.n, c.k)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint16) {
		n := 1 + int(nRaw)%1024
		k := int(kRaw)%(4*n+1) - 2*n
		checkRotateBits(t, seed, n, k)
	})
}

// TestRotateBitsMatchesReference sweeps the fuzz domain deterministically:
// every k in -2n..2n for every n up to 130 (all word-boundary cases of
// one, two and three words), and for every larger n up to 1024 the
// boundary rotations plus random ones.
func TestRotateBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 1024; n++ {
		if n <= 130 {
			for k := -2 * n; k <= 2*n; k++ {
				checkRotateBits(t, int64(n*10007+k), n, k)
			}
			continue
		}
		ks := []int{-2 * n, -n - 1, -n, -n + 1, -65, -64, -63, -1, 0, 1, 63, 64, 65, n - 64, n - 1, n, n + 1, 2 * n}
		for i := 0; i < 4; i++ {
			ks = append(ks, rng.Intn(4*n+1)-2*n)
		}
		for _, k := range ks {
			checkRotateBits(t, rng.Int63(), n, k)
		}
	}
}

// TestRotatorMatchesReference: the packed shifter equals the bit-by-bit
// pack/rotate/unpack for data and metadata, across metadata widths that
// end mid-byte, on a word boundary and not at all, with garbage in the
// metadata padding bits (which the rotation must drop, and k == 0 keeps).
func TestRotatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []pcmdev.Config{
		{Lines: 2, MetaBits: 0},
		{Lines: 2, MetaBits: 3},
		{Lines: 2, MetaBits: 28},
		{Lines: 2, MetaBits: 64},
		{Lines: 2, MetaBits: 71},
		{Lines: 2, LineBytes: 16, MetaBits: 5},
		{Lines: 2, LineBytes: 32, MetaBits: 100},
	} {
		dev := pcmdev.MustNew(cfg) // resolves defaults
		cfg = dev.Config()
		r := newRotator(cfg)
		n := cfg.TotalBitsPerLine()
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, cfg.LineBytes)
			meta := make([]byte, (cfg.MetaBits+7)/8)
			rng.Read(data)
			rng.Read(meta)
			k := rng.Intn(4*n+1) - 2*n
			if trial%10 == 0 {
				k = 0
			}
			wantD, wantM := rotateImageRef(cfg, data, meta, k)
			gotD, gotM := r.rotate(data, meta, k)
			if !bytes.Equal(gotD, wantD) || !bytes.Equal(gotM, wantM) {
				t.Fatalf("cfg %+v, k=%d: rotate = %x/%x, want %x/%x", cfg, k, gotD, gotM, wantD, wantM)
			}
		}
	}
}

// wearArrays returns a Start-Gap and a Security Refresh array with hashed
// HWL, a gap move or pair swap on every write, and gap-move costs either
// charged or free.
func wearArrays(t testing.TB, free bool) map[string]pcmdev.Array {
	t.Helper()
	cfg := StartGapConfig{Psi: 1, Mode: HWLHashed, FreeGapMoves: free}
	dev := pcmdev.Config{Lines: 16, MetaBits: 28}
	sg, err := NewStartGap(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSecurityRefresh(dev, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]pcmdev.Array{"StartGap": sg, "SecurityRefresh": sr}
}

// TestWriteZeroAllocsWearLeveled pins the wear-leveled paths to zero
// allocations per call, as TestWriteZeroAllocs* in internal/core pins the
// schemes on unwrapped arrays: Write (with its gap move or pair swap on
// every call), PeekInto and ReadInto all run in the array's scratch.
func TestWriteZeroAllocsWearLeveled(t *testing.T) {
	for _, free := range []bool{true, false} {
		for name, a := range wearArrays(t, free) {
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 64)
			meta := make([]byte, 4)
			line := uint64(0)
			ops := map[string]func(){
				"Write": func() {
					rng.Read(data)
					a.Write(line, data, meta)
				},
				"PeekInto": func() { a.PeekInto(line, data, meta) },
				"ReadInto": func() { a.ReadInto(line, data, meta) },
			}
			for op, fn := range ops {
				if n := testing.AllocsPerRun(300, func() {
					fn()
					line = (line + 5) % 16
				}); n != 0 {
					t.Errorf("%s (free gap moves %v): %s allocates %.2f times per call, want 0", name, free, op, n)
				}
			}
		}
	}
}

// TestWriteSlotFlipsSurviveGapMove: with charged gap moves, the SlotFlips
// a Write returns describe that write, not the gap-move copy after it.
func TestWriteSlotFlipsSurviveGapMove(t *testing.T) {
	for name, a := range wearArrays(t, false) {
		data := make([]byte, 64)
		meta := make([]byte, 4)
		for i := 0; i < 40; i++ {
			data[i%64] ^= 0xff
			res := a.Write(uint64(i%16), data, meta)
			sum := 0
			for _, f := range res.SlotFlips {
				sum += f
			}
			if sum != res.DataFlips || len(res.SlotFlips) != res.Slots {
				t.Fatalf("%s write %d: SlotFlips %v do not add up to %d flips in %d slots", name, i, res.SlotFlips, res.DataFlips, res.Slots)
			}
		}
	}
}

// BenchmarkRotateImage times one HWL rotation of a default line with
// DEUCE-sized metadata, the operation every wear-leveled write, read and
// gap move performs.
func BenchmarkRotateImage(b *testing.B) {
	cfg := pcmdev.MustNew(pcmdev.Config{Lines: 2, MetaBits: 28}).Config()
	r := newRotator(cfg)
	data := make([]byte, cfg.LineBytes)
	meta := make([]byte, 4)
	rand.New(rand.NewSource(1)).Read(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.rotate(data, meta, 1+i%500)
	}
}
