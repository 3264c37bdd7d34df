package wear

import (
	"encoding/binary"

	"deuce/internal/pcmdev"
)

// rotator is the HWL shifter shared by every wear leveler in this package:
// it rotates a line's combined data+metadata bit image as one bit string,
// 64 bits at a time, in scratch buffers it owns, so the wear-leveled
// write and read paths do not allocate. A rotator belongs to one array and
// shares its single-owner contract.
type rotator struct {
	lineBytes int
	metaBits  int
	metaBytes int
	n         int // data+meta bits per line, the rotation modulus

	img      []byte   // the packed image, whole words; rotate's output
	src, dst []uint64 // the image as words, before and after rotation

	// data and meta stage a stored image on its way through a read or a
	// gap move.
	data, meta []byte
}

// newRotator sizes a rotator for the device geometry cfg (defaults
// already applied).
func newRotator(cfg pcmdev.Config) *rotator {
	n := cfg.TotalBitsPerLine()
	words := (n + 63) / 64
	metaBytes := (cfg.MetaBits + 7) / 8
	return &rotator{
		lineBytes: cfg.LineBytes,
		metaBits:  cfg.MetaBits,
		metaBytes: metaBytes,
		n:         n,
		img:       make([]byte, 8*words),
		src:       make([]uint64, words),
		dst:       make([]uint64, words),
		data:      make([]byte, cfg.LineBytes),
		meta:      make([]byte, metaBytes),
	}
}

// rotate returns data and the first metaBits of meta, rotated left by k as
// a single bit string. Bits past metaBits in the rotated metadata are
// zero. A k of 0 returns data and meta themselves; otherwise the results
// alias the rotator's scratch and are valid until its next rotate. The
// inputs may alias that scratch.
func (r *rotator) rotate(data, meta []byte, k int) (rdata, rmeta []byte) {
	if k == 0 {
		return data, meta
	}
	img := r.img
	clear(img)
	copy(img[:r.lineBytes], data)
	m := img[r.lineBytes : r.lineBytes+r.metaBytes]
	copy(m, meta)
	if rem := r.metaBits & 7; rem != 0 {
		m[r.metaBytes-1] &= 1<<rem - 1
	}
	for i := range r.src {
		r.src[i] = binary.LittleEndian.Uint64(img[8*i:])
	}
	rotateBits(r.dst, r.src, r.n, k)
	for i, w := range r.dst {
		binary.LittleEndian.PutUint64(img[8*i:], w)
	}
	return img[:r.lineBytes], m
}

// unrotateInto undoes a rotation by k of the image staged in r.data and
// r.meta, copying the result into data and meta.
func (r *rotator) unrotateInto(data, meta []byte, k int) {
	d, m := r.rotate(r.data, r.meta, -k)
	copy(data, d)
	copy(meta, m)
}

// rotateBits sets the first n bits of dst to the first n bits of src
// rotated left by k (bit i moves to (i+k) mod n), and clears dst's bits
// past n. Bit i lives in word i/64 at position i%64. src's bits past n
// must be zero, and dst must not alias src. Every output word is one or
// two shifted source words, so the cost is O(n/64).
func rotateBits(dst, src []uint64, n, k int) {
	k %= n
	if k < 0 {
		k += n
	}
	words := (n + 63) / 64
	s := n - k // the source bit that lands on output bit 0
	if s == n {
		s = 0
	}
	for j := 0; j < words; j++ {
		if rem := n - s; rem >= 64 {
			dst[j] = bitsAt(src, s)
		} else {
			// The word wraps: rem bits from the top of the image,
			// then its bottom.
			dst[j] = bitsAt(src, s)&(1<<rem-1) | src[0]<<rem
		}
		s += 64
		if s >= n {
			s -= n
		}
	}
	if tail := n & 63; tail != 0 {
		dst[words-1] &= 1<<tail - 1
	}
}

// bitsAt returns the 64 bits of w starting at bit pos, zero-filled past
// the end of w.
func bitsAt(w []uint64, pos int) uint64 {
	i, sh := pos>>6, uint(pos&63)
	v := w[i] >> sh
	if sh != 0 && i+1 < len(w) {
		v |= w[i+1] << (64 - sh)
	}
	return v
}
