package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressConcurrent(t *testing.T) {
	p := NewProgress(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p.Add(1)
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Done != 100 || s.Total != 100 {
		t.Fatalf("snapshot = %+v, want 100/100", s)
	}
	if s.ETA != 0 {
		t.Fatalf("finished run should have zero ETA, got %v", s.ETA)
	}
	if !strings.Contains(s.String(), "100/100 (100%)") {
		t.Fatalf("rendering = %q", s.String())
	}
}

func TestProgressWatch(t *testing.T) {
	p := NewProgress(2)
	p.Add(1)
	var mu sync.Mutex
	var got []ProgressSnapshot
	stop := p.Watch(time.Millisecond, func(s ProgressSnapshot) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	time.Sleep(5 * time.Millisecond)
	stop()
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("watcher reported nothing")
	}
	if last := got[len(got)-1]; last.Done != 1 {
		t.Fatalf("final report %+v, want Done=1", last)
	}
}

func TestRunMetaWriteFile(t *testing.T) {
	dir := t.TempDir()
	m := NewRunMeta("deucesim", []string{"-scheme", "deuce"})
	m.Config = map[string]interface{}{"seed": 7}
	m.AddOutput("trace.jsonl")
	path := filepath.Join(dir, "sub", "runmeta.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunMeta
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("runmeta.json not valid JSON: %v", err)
	}
	if back.Tool != "deucesim" || len(back.Args) != 2 || back.Host.CPUs < 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.Build.GoVersion == "" {
		t.Fatal("build info missing Go version")
	}
	if back.DurationMs < 0 || back.End.Before(back.Start) {
		t.Fatalf("bad timing: %+v", back)
	}
	if len(back.Outputs) != 1 || back.Outputs[0] != "trace.jsonl" {
		t.Fatalf("outputs = %v", back.Outputs)
	}
}

func TestBuildInfoString(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" {
		t.Fatal("empty Go version")
	}
	if s := bi.String(); !strings.Contains(s, bi.GoVersion) {
		t.Fatalf("version string %q missing toolchain", s)
	}
	long := BuildInfo{Module: "deuce", GitSHA: "0123456789abcdef0123", Dirty: true, GoVersion: "go1.24.0"}
	if s := long.String(); !strings.Contains(s, "rev 0123456789ab dirty") {
		t.Fatalf("version string %q should truncate the SHA and mark dirty", s)
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("writes").Add(0, 42)
	r.Expvar("test_serve_debug")
	srv, addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"test_serve_debug"`) || !strings.Contains(vars, `"writes":42`) {
		t.Fatalf("/debug/vars missing registry:\n%s", vars)
	}
	if !json.Valid([]byte(vars)) {
		t.Fatal("/debug/vars is not valid JSON")
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}
