// Command benchbackend produces BENCH_backend.json, the durable-backend
// benchmark record: the steady-state DEUCE write path measured once per
// backend — in-memory, mmap-backed file, the same file with mmap disabled
// (the pread/pwrite fallback), the sharded directory, and a file backend
// syncing every 64 writes — in the same shape as BENCH_writehot.json so
// `deucereport record -bench` ingests it into the regression ledger as
// bench:BackendWrite/<backend> metrics.
//
// Before timing anything, the tool runs a fixed differential trace on
// every backend and refuses to write a record unless all of them produce
// bit-identical contents and flip counts to the in-memory reference — a
// benchmark of a backend that diverges would be a number about a bug.
//
// Usage: go run ./ci/benchbackend -out BENCH_backend.json
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"deuce"
	"deuce/internal/obs"
)

// noMmapEnv mirrors internal/backend's escape hatch; setting it forces
// the file backend onto its pread/pwrite slow path.
const noMmapEnv = "DEUCE_BACKEND_NO_MMAP"

type variant struct {
	label     string
	backend   deuce.Backend
	noMmap    bool
	syncEvery int
}

func variants() []variant {
	return []variant{
		{label: "mem", backend: deuce.MemBackend},
		{label: "file", backend: deuce.FileBackend},
		{label: "file-nommap", backend: deuce.FileBackend, noMmap: true},
		{label: "dir", backend: deuce.DirBackend},
		{label: "file-sync64", backend: deuce.FileBackend, syncEvery: 64},
	}
}

func main() {
	lines := flag.Int("lines", 1024, "installed working-set lines")
	out := flag.String("out", "BENCH_backend.json", "output JSON path")
	flag.Parse()

	type row struct {
		Scheme      string  `json:"scheme"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	}
	var rows []row
	var ref [32]byte
	for i, v := range variants() {
		digest, err := differential(v, *lines)
		if err != nil {
			fatal("%s: differential trace: %v", v.label, err)
		}
		if i == 0 {
			ref = digest
		} else if digest != ref {
			fatal("%s: contents diverge from the in-memory reference — not benchmarking a bug", v.label)
		}
		res := testing.Benchmark(func(b *testing.B) { writeHot(b, v, *lines) })
		rows = append(rows, row{
			Scheme:      v.label,
			NsPerOp:     float64(res.NsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
			AllocsPerOp: float64(res.AllocsPerOp()),
		})
		fmt.Printf("%-12s %8d ns/op %6d B/op %4d allocs/op\n",
			v.label, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	}

	doc := struct {
		obs.BenchHeader
		Results []row  `json:"results"`
		Notes   string `json:"notes"`
	}{
		BenchHeader: obs.NewBenchHeader("BenchmarkBackendWrite", fmt.Sprintf("Steady-state DEUCE write path per storage backend: %d installed lines, sparse 1-byte mutation per iteration, rotating lines; file-sync64 adds a full Sync every 64 writes. All backends verified bit-identical on a fixed differential trace before timing. Regenerate with `make bench-backend`.", *lines)),
		Results:     rows,
		Notes:       "mem is the zero-copy Pager fast path BenchmarkWriteHot also exercises; file adds mmap page access (near-mem), file-nommap pays a pread+pwrite per touched page, dir adds shard routing on top of mmap, and file-sync64 shows the msync amortization. Ingested into the regression ledger by the CI durability job via `deucereport record -bench`.",
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// newMemory builds a Memory for the variant in a fresh temp directory.
func newMemory(v variant, lines int) (*deuce.Memory, func(), error) {
	opts := deuce.Options{Lines: lines, Scheme: deuce.DEUCE, Backend: v.backend}
	cleanup := func() {}
	if v.backend != deuce.MemBackend {
		dir, err := os.MkdirTemp("", "benchbackend")
		if err != nil {
			return nil, nil, err
		}
		opts.Dir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	if v.noMmap {
		os.Setenv(noMmapEnv, "1")
		defer os.Unsetenv(noMmapEnv)
	}
	m, err := deuce.New(opts)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return m, cleanup, nil
}

// differential drives a fixed seeded trace and digests the final contents
// plus the exact flip count; every variant must produce the same digest.
func differential(v variant, lines int) ([32]byte, error) {
	m, cleanup, err := newMemory(v, lines)
	if err != nil {
		return [32]byte{}, err
	}
	defer cleanup()
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 64)
	for i := 0; i < 4096; i++ {
		l := uint64(rng.Intn(lines))
		rng.Read(buf)
		m.Write(l, buf)
		if v.syncEvery > 0 && i%v.syncEvery == 0 {
			if err := m.Sync(); err != nil {
				return [32]byte{}, err
			}
		}
	}
	h := sha256.New()
	for l := 0; l < lines; l++ {
		m.ReadInto(uint64(l), buf)
		h.Write(buf)
	}
	st := m.Stats()
	fmt.Fprintf(h, "flips=%d slots=%d", st.BitFlips, st.WriteSlots)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// writeHot is the timed loop: the same rotating sparse-mutation pattern
// BenchmarkWriteHot uses, against this variant's backend.
func writeHot(b *testing.B, v variant, lines int) {
	m, cleanup, err := newMemory(v, lines)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	defer m.Close()
	data := make([]byte, 64)
	for l := 0; l < lines; l++ {
		data[0] = byte(l)
		m.Install(uint64(l), data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := uint64(i % lines)
		data[i%64] = byte(i)
		m.Write(l, data)
		if v.syncEvery > 0 && i%v.syncEvery == 0 {
			if err := m.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fatal prints a formatted error and exits non-zero.
func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchbackend: "+format+"\n", args...)
	os.Exit(1)
}
