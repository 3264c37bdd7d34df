// BENCH_serve.json record writing, shared by cmd/deuceserve and
// ci/benchserve so the interactive harness and the CI lane emit the same
// schema the regression ledger ingests.

package servebench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"deuce/internal/obs"
)

// BenchDoc is the BENCH_serve.json document: the standard BENCH_* header
// (obs.BenchHeader, embedded so the JSON stays flat) plus the run
// configuration and one Result per measured scheme. `deucereport record
// -serve` ingests it into the perf ledger as serve: metrics.
type BenchDoc struct {
	obs.BenchHeader
	// Config is the workload shape every scheme ran under.
	Config BenchConfig `json:"config"`
	// Results holds one serving measurement per scheme.
	Results []Result `json:"results"`
	// Notes carries caveats (runner noise, scale) for human readers.
	Notes string `json:"notes"`
}

// BenchConfig is the workload-shape header recorded alongside results so
// a ledger comparison knows two records measured the same thing.
type BenchConfig struct {
	// Fronts lists the front ends measured, in result order (deduped).
	Fronts []string `json:"fronts"`
	// Shards is the shard count the sharded front ran with (0 when only
	// the coarse front was measured).
	Shards int `json:"shards,omitempty"`
	// Clients is the client goroutine count.
	Clients int `json:"clients"`
	// Ops is the request count per scheme.
	Ops int `json:"ops"`
	// ReadFraction is the Get probability.
	ReadFraction float64 `json:"read_fraction"`
	// Lines is the memory capacity in lines.
	Lines int `json:"lines"`
	// Keys is the keyspace size.
	Keys int `json:"keys"`
	// ZipfS is the key-popularity skew exponent.
	ZipfS float64 `json:"zipf_s"`
	// Seed is the workload seed.
	Seed int64 `json:"seed"`
}

// NewBenchDoc assembles a BenchDoc from a run's configuration and
// per-scheme results, stamping the host fields. date is YYYY-MM-DD
// (passed in, not sampled here, so tests can pin it).
func NewBenchDoc(cfg Config, results []Result, date string) BenchDoc {
	cfg.setDefaults()
	var schemes, fronts []string
	shards := 0
	seenScheme := map[string]bool{}
	seenFront := map[string]bool{}
	for _, r := range results {
		if !seenScheme[r.Scheme] {
			seenScheme[r.Scheme] = true
			schemes = append(schemes, r.Scheme)
		}
		if !seenFront[r.Front] {
			seenFront[r.Front] = true
			fronts = append(fronts, r.Front)
		}
		if r.Front == FrontSharded {
			shards = r.Shards
		}
	}
	hdr := obs.NewBenchHeader("BenchmarkServe",
		fmt.Sprintf("Concurrent serving harness: %d clients, %d Zipfian(s=%g) mixed ops (%.0f%% reads) per scheme×front against a %d-line memory; schemes %s; fronts %s. Latency from lock-free striped histograms (~3%% bucket error, max exact). Regenerate with `make bench-serve`.",
			cfg.Clients, cfg.Ops, cfg.ZipfS, cfg.ReadFraction*100, cfg.Lines,
			strings.Join(schemes, ", "), strings.Join(fronts, ", ")))
	hdr.Date = date
	return BenchDoc{
		BenchHeader: hdr,
		Config: BenchConfig{
			Fronts:       fronts,
			Shards:       shards,
			Clients:      cfg.Clients,
			Ops:          cfg.Ops,
			ReadFraction: cfg.ReadFraction,
			Lines:        cfg.Lines,
			Keys:         cfg.Keys,
			ZipfS:        cfg.ZipfS,
			Seed:         cfg.Seed,
		},
		Results: results,
		Notes:   "Latency quantiles and throughput are host- and load-sensitive: the ledger gates serve: metrics at the loose walltime threshold, never the ±2% value threshold. The coarse front is the single-lock baseline; the sharded front (internal/servefront) is the single-writer-line contender measured side by side.",
	}
}

// WriteJSON writes the document to path, indented, trailing newline.
func (d BenchDoc) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
