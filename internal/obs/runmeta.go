package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// RunMeta is the manifest written next to experiment outputs: everything
// needed to re-run or audit a result — the tool and its arguments, the
// build that produced it, the host it ran on, and how long it took.
type RunMeta struct {
	Tool  string    `json:"tool"`
	Args  []string  `json:"args"`
	Build BuildInfo `json:"build"`

	Host struct {
		OS       string `json:"os"`
		Arch     string `json:"arch"`
		CPUs     int    `json:"cpus"`
		Hostname string `json:"hostname,omitempty"`
	} `json:"host"`

	// Config is the tool-specific run configuration (flag values, seeds,
	// experiment IDs); any JSON-marshalable value.
	Config interface{} `json:"config,omitempty"`

	// Outputs lists the files the run produced alongside this manifest.
	Outputs []string `json:"outputs,omitempty"`

	Start      time.Time `json:"start"`
	End        time.Time `json:"end,omitempty"`
	DurationMs float64   `json:"duration_ms,omitempty"`
}

// NewRunMeta starts a manifest for the named tool with the process
// arguments, stamping build identity, host facts and the start time.
func NewRunMeta(tool string, args []string) *RunMeta {
	m := &RunMeta{
		Tool:  tool,
		Args:  args,
		Build: ReadBuildInfo(),
		Start: time.Now(),
	}
	m.Host.OS = runtime.GOOS
	m.Host.Arch = runtime.GOARCH
	m.Host.CPUs = runtime.NumCPU()
	if hn, err := os.Hostname(); err == nil {
		m.Host.Hostname = hn
	}
	return m
}

// AddOutput records a produced file path.
func (m *RunMeta) AddOutput(path string) { m.Outputs = append(m.Outputs, path) }

// Finish stamps the end time and duration.
func (m *RunMeta) Finish() {
	m.End = time.Now()
	m.DurationMs = float64(m.End.Sub(m.Start)) / float64(time.Millisecond)
}

// WriteFile finishes the manifest and writes it as indented JSON to path,
// creating parent directories as needed.
func (m *RunMeta) WriteFile(path string) error {
	if m.End.IsZero() {
		m.Finish()
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// BenchHeader is the identity and host header every BENCH_*.json record
// starts with. Writers embed it, so the record's JSON stays flat and every
// record states the cores and GOMAXPROCS its numbers were measured on.
type BenchHeader struct {
	// Benchmark names the measurement ("BenchmarkServe", ...).
	Benchmark string `json:"benchmark"`
	// Description says what was measured and how to regenerate it.
	Description string `json:"description"`
	// Date is the run date (YYYY-MM-DD).
	Date string `json:"date"`
	// Goos is runtime.GOOS at measurement time.
	Goos string `json:"goos"`
	// Goarch is runtime.GOARCH at measurement time.
	Goarch string `json:"goarch"`
	// CPU is the host CPU model, best effort ("" when unknown).
	CPU string `json:"cpu"`
	// Go is the toolchain version.
	Go string `json:"go"`
	// Cores is runtime.NumCPU.
	Cores int `json:"cores"`
	// GOMAXPROCS is runtime.GOMAXPROCS(0) at measurement time.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// NewBenchHeader stamps a header for the named benchmark with today's date
// and the host's facts.
func NewBenchHeader(benchmark, description string) BenchHeader {
	return BenchHeader{
		Benchmark:   benchmark,
		Description: description,
		Date:        time.Now().Format("2006-01-02"),
		Goos:        runtime.GOOS,
		Goarch:      runtime.GOARCH,
		CPU:         cpuModel(),
		Go:          runtime.Version(),
		Cores:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// cpuModel best-effort reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
