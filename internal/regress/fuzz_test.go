package regress

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLedgerRead holds the ledger's decoders to the trust-boundary rule:
// ledgers, -metrics snapshots, BENCH records and `go test -bench` output
// come from files and CI caches, so every input must either decode or
// return an error — never panic. Each input is fed to every decoder; the
// seeds are the committed ledgers and BENCH records, so mutations start
// from inputs each decoder actually accepts.
func FuzzLedgerRead(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{"../../ci/*.jsonl", "../../BENCH_*.json", "testdata/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed files found")
	}
	for _, path := range seeds {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("BenchmarkWriteHot/deuce-8  1000000  1122 ns/op  0 B/op  0 allocs/op  22.5 deuce%\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if runs, err := Read(bytes.NewReader(data)); err == nil {
			_ = MetricNames(runs)
		}
		for _, ingest := range []func(*Run, io.Reader) error{
			IngestSnapshotJSON, IngestServeJSON, IngestBenchJSON, IngestBenchText,
		} {
			run := Run{ID: "fuzz"}
			_ = ingest(&run, bytes.NewReader(data))
		}
	})
}
