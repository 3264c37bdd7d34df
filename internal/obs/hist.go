package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear ("HDR-style") bucket layout: values below subCount land in
// exact unit buckets; above that, each power-of-two octave is split into
// subCount linear sub-buckets, giving a bounded ~1/subCount (3%) relative
// error at constant memory across the full uint64 range.
const (
	subBits  = 5 // 32 sub-buckets per octave
	subCount = 1 << subBits
	subMask  = subCount - 1
	// histBuckets covers every uint64 value: the initial exact region
	// plus octaves 0..58 — index(math.MaxUint64) == histBuckets-1.
	histBuckets = (64 - subBits + 1) << subBits
)

// bucketIndex maps a value to its bucket. The mapping is continuous
// (bucket i's lower bound is bucketLower(i)) and monotone.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := uint(bits.Len64(v) - 1 - subBits)
	return int(uint(exp+1)<<subBits | uint(v>>exp)&subMask)
}

// bucketLower returns the smallest value mapping to bucket i.
func bucketLower(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	exp := uint(i>>subBits) - 1
	return uint64(subCount|(i&subMask)) << exp
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) uint64 {
	if i >= histBuckets-1 {
		return math.MaxUint64
	}
	return bucketLower(i+1) - 1
}

// Hist is a lock-free histogram: log-bucketed counts over the full
// uint64 range at constant memory, with zero allocations and no locks on
// Observe. It records request latencies in nanoseconds as well as the
// simulator's per-write slot and flip counts. One Hist is safe for any
// number of concurrent observers; for write-heavy paths, give each worker
// its own Hist (see StripedHist) and merge at snapshot time — merges are
// exact.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one value. It is lock-free and allocation-free: one
// bucket-index computation, three atomic adds, and a CAS loop for the
// running maximum.
func (h *Hist) Observe(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// N returns the observation count.
func (h *Hist) N() uint64 { return h.n.Load() }

// Snapshot copies the histogram's current state. Concurrent observers may
// land between bucket reads — a snapshot is a consistent record of every
// observation that completed before it started, plus possibly parts of
// in-flight ones; take the final snapshot after workers quiesce for exact
// totals.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Counts: make([]uint64, histBuckets),
		N:      h.n.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a detached copy of a Hist (or a merge of several).
// Bucket layout is fixed by the package, so snapshots from different
// histograms merge bucket-wise exactly.
type HistSnapshot struct {
	// Counts holds one count per package-defined log-linear bucket.
	Counts []uint64 `json:"counts"`
	// N is the total observation count.
	N uint64 `json:"n"`
	// Sum is the sum of all observed values.
	Sum uint64 `json:"sum"`
	// Max is the largest observed value (0 when empty).
	Max uint64 `json:"max"`
}

// Merge returns the exact union of the two snapshots: bucket-wise sums,
// summed N and Sum, and the larger Max. Merging the per-stripe snapshots
// of a striped histogram equals observing the concatenated stream.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Counts: make([]uint64, histBuckets),
		N:      s.N + o.N,
		Sum:    s.Sum + o.Sum,
		Max:    s.Max,
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	copy(out.Counts, s.Counts)
	for i, c := range o.Counts {
		out.Counts[i] += c
	}
	return out
}

// Mean returns the mean observation (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Quantile returns the q-quantile (q in [0,1]) estimated from the bucket
// counts: the target rank's bucket is located by cumulative count and the
// value interpolated linearly inside it, clamped to the observed maximum.
// The log-linear layout bounds the relative error at ~3%. Returns 0 on an
// empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the k-th smallest observation with k = ceil(q*N),
	// at least 1, so q=0 is the minimum and q=1 the maximum.
	rank := uint64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	if rank >= s.N {
		// The maximum is tracked exactly; never estimate it.
		return float64(s.Max)
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo, hi := float64(bucketLower(i)), float64(bucketUpper(i))
		if hi > float64(s.Max) && float64(s.Max) >= lo {
			hi = float64(s.Max) // the final occupied bucket ends at the observed max
		}
		// Interpolate by the rank's position among this bucket's c
		// observations (positions 1..c map onto [lo,hi]).
		pos := float64(rank - (cum - c))
		if c > 1 {
			return lo + (hi-lo)*(pos-1)/float64(c-1)
		}
		return lo + (hi-lo)/2
	}
	return float64(s.Max)
}

// Quantiles is the fixed percentile set snapshots stream and summaries
// report: p50/p90/p99/p999 plus count, mean and max. The field names
// carry an _ns suffix because latency is the common case; a histogram of
// slots or flips per write reports the same fields in its own unit.
type Quantiles struct {
	// N is the observation count the quantiles were computed over.
	N uint64 `json:"n"`
	// MeanNs is the mean observation in nanoseconds.
	MeanNs float64 `json:"mean_ns"`
	// P50Ns is the median latency in nanoseconds.
	P50Ns float64 `json:"p50_ns"`
	// P90Ns is the 90th-percentile latency in nanoseconds.
	P90Ns float64 `json:"p90_ns"`
	// P99Ns is the 99th-percentile latency in nanoseconds.
	P99Ns float64 `json:"p99_ns"`
	// P999Ns is the 99.9th-percentile latency in nanoseconds.
	P999Ns float64 `json:"p999_ns"`
	// MaxNs is the largest observed latency in nanoseconds.
	MaxNs uint64 `json:"max_ns"`
}

// Summarize computes the fixed percentile set from the snapshot.
func (s HistSnapshot) Summarize() Quantiles {
	return Quantiles{
		N:      s.N,
		MeanNs: s.Mean(),
		P50Ns:  s.Quantile(0.50),
		P90Ns:  s.Quantile(0.90),
		P99Ns:  s.Quantile(0.99),
		P999Ns: s.Quantile(0.999),
		MaxNs:  s.Max,
	}
}
