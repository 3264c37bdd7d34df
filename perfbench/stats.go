package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the middle two for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// latencyQuantiles returns the p50 and p99 of nanosecond latencies in
// microseconds. lats is sorted in place.
func latencyQuantiles(lats []int64) (p50, p99 float64) {
	slices.Sort(lats)
	at := func(q float64) float64 {
		pos := q * float64(len(lats)-1)
		lo := int(pos)
		if lo+1 >= len(lats) {
			return float64(lats[len(lats)-1]) / 1e3
		}
		return (float64(lats[lo]) + (pos-float64(lo))*float64(lats[lo+1]-lats[lo])) / 1e3
	}
	return at(0.50), at(0.99)
}

// procField reads one numeric "key: value" field of a /proc/self file;
// ok is false when the file or field is unavailable.
func procField(file, key string) (v int64, ok bool) {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, rest, found := strings.Cut(sc.Text(), ":")
		if !found || k != key {
			continue
		}
		n, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		return n, err == nil
	}
	return 0, false
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if kb, ok := procField("status", "VmHWM"); ok {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuModel names the host CPU for the result stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gcWindow measures heap allocations and GC pause time across a span of
// work.
type gcWindow struct{ mallocs, pauseNs uint64 }

func startGC() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{ms.Mallocs, ms.PauseTotalNs}
}

// since returns the allocations and GC pause seconds since w started.
func (w gcWindow) since() (allocs float64, pauseS float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - w.mallocs), float64(ms.PauseTotalNs-w.pauseNs) / 1e9
}
