package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"deuce"
	"deuce/internal/core"
	"deuce/internal/workload"
)

// The durable workload: one writer on deuce.Memory over FileBackend in a
// fresh directory replays an mcf writeback stream, syncing every
// groupCommit writes, then persists, closes, reopens, restores and reads
// back every line. It is the only workload that reaches backend.File,
// msync, the counter-page flush and reopen.
const (
	durableLines  = 4096
	durableWrites = 200000
	// groupCommit is the writes per Sync. Much smaller group commits make
	// the run a measurement of the disk's flush latency, which on shared
	// hosts varies run to run by more than any bound could absorb.
	groupCommit = 4096
)

// durableSetup is the pre-generated stream and the content every line
// must hold at the end.
type durableSetup struct {
	lines    int
	installs []uint64 // first-touch lines, in order
	initial  [][]byte // their content before the first write
	wlines   []uint64
	wdata    [][]byte
	final    map[uint64][]byte
	lats     []int64
}

func setupDurable(seed int64, writes, lines int) (*durableSetup, error) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		return nil, err
	}
	d := &durableSetup{lines: lines, final: make(map[uint64][]byte), lats: make([]int64, writes)}
	gen, err := workload.New(prof, workload.Config{Seed: seed, CPUs: 1, LinesPerCPU: lines,
		FirstTouch: func(line uint64, initial []byte) {
			d.installs = append(d.installs, line)
			d.initial = append(d.initial, initial)
		}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < writes; i++ {
		line, data := gen.NextWriteback(0)
		d.wlines = append(d.wlines, line)
		d.wdata = append(d.wdata, data)
		d.final[line] = data
	}
	return d, nil
}

// durableOut is one session's outcome.
type durableOut struct {
	sample
	reopenS float64
	stats   deuce.Stats
}

// session runs the stream once through deuce.Memory in a fresh directory
// under root, which it removes afterwards.
func (d *durableSetup) session(root string, t *tally) (durableOut, error) {
	var out durableOut
	dir, err := os.MkdirTemp(root, "durable-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	opts := deuce.Options{Lines: d.lines, Backend: deuce.FileBackend, Dir: dir}
	start := time.Now()
	m, err := deuce.New(opts)
	if err != nil {
		return out, err
	}
	for i, line := range d.installs {
		m.Install(line, d.initial[i])
	}
	writeStart := time.Now()
	for i, line := range d.wlines {
		t0 := time.Now()
		m.Write(line, d.wdata[i])
		if (i+1)%groupCommit == 0 {
			if err := m.Sync(); err != nil {
				m.Close()
				return out, fmt.Errorf("sync: %w", err)
			}
		}
		d.lats[i] = int64(time.Since(t0))
	}
	if err := m.Sync(); err != nil {
		m.Close()
		return out, fmt.Errorf("sync: %w", err)
	}
	writeS := time.Since(writeStart).Seconds()
	out.stats = m.Stats()

	reopen := time.Now()
	snap := filepath.Join(dir, "state.dst")
	if err := m.PersistToFile(snap); err != nil {
		m.Close()
		return out, err
	}
	if err := m.Close(); err != nil {
		return out, err
	}
	m, err = deuce.New(opts)
	if err != nil {
		return out, err
	}
	defer m.Close()
	if err := m.RestoreFromFile(snap); err != nil {
		return out, err
	}
	d.verify(t, m.ReadInto)
	out.reopenS = time.Since(reopen).Seconds()
	out.wall = time.Since(start).Seconds()
	out.opsPerS = float64(len(d.wlines)) / writeS
	out.simFlip = 100 * out.stats.FlipFraction
	out.p50, out.p99 = latencyQuantiles(d.lats)
	return out, nil
}

// verify reads back every line the stream touched and checks it holds the
// last content written to it.
func (d *durableSetup) verify(t *tally, readInto func(line uint64, dst []byte)) {
	buf := make([]byte, 64)
	for line, want := range d.final {
		readInto(line, buf)
		t.check(bytes.Equal(buf, want), "line %d reads back %x after reopen, synced %x", line, buf, want)
	}
}

func measureDurable(cfg config) (map[string]metric, tally, error) {
	var t tally
	d, setupS, err := repeatSetup(3, func() (*durableSetup, error) {
		return setupDurable(cfg.seed, durableWrites, durableLines)
	})
	if err != nil {
		return nil, t, err
	}
	var reopens []float64
	samples, err := measureFor(cfg.seconds, func() (sample, error) {
		out, err := d.session(cfg.dir, &t)
		reopens = append(reopens, out.reopenS)
		return out.sample, err
	})
	if err != nil {
		return nil, t, err
	}
	checkExact(&t, "durable", samples)
	t.note("reopen_s", median(reopens), "s")
	return endToEnd(samples, setupS, &t), t, nil
}

// durableLayers is the durable workload's traced replay: one untraced
// session, then the same stream on the scheme over traced backends (the
// MakeBackend deuce.Memory builds for FileBackend, decorated), checked
// against it. full replays the whole stream; otherwise a short probe.
func durableLayers(cfg config, full bool, t *tally) (map[string]metric, error) {
	writes, lines := 20000, 1024
	if full {
		writes, lines = durableWrites, durableLines
	}
	// GC pause covers set-up and one untraced session; allocations the
	// session alone.
	pauses := startGC()
	d, err := setupDurable(cfg.seed, writes, lines)
	if err != nil {
		return nil, err
	}
	gc := startGC()
	plain, err := d.session(cfg.dir, t)
	if err != nil {
		return nil, err
	}
	allocs, _ := gc.since()
	_, pause := pauses.since()

	dir, err := os.MkdirTemp(cfg.dir, "durable-traced-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var bt backendTimes
	params := core.Params{Lines: lines, MakeBackend: backendMaker(core.DirBackendMaker(dir, false, 0), &bt)}
	start := time.Now()
	s, err := core.New(core.KindDeuce, params)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (map[string]metric, error) {
		s.(core.Durable).Close()
		return nil, err
	}
	for i, line := range d.installs {
		s.Install(line, d.initial[i])
	}
	io0, _ := procField("io", "write_bytes")
	var write callTimer
	var beInWrite int64
	for i, line := range d.wlines {
		b0 := bt.read.ns + bt.write.ns
		t0 := time.Now()
		s.Write(line, d.wdata[i])
		write.since(t0)
		beInWrite += bt.read.ns + bt.write.ns - b0
		if (i+1)%groupCommit == 0 {
			if err := s.(core.Durable).Sync(); err != nil {
				return fail(err)
			}
		}
	}
	if err := s.(core.Durable).Sync(); err != nil {
		return fail(err)
	}
	tracedS := time.Since(start).Seconds()
	io1, ioOK := procField("io", "write_bytes")
	st := s.Device().Stats()
	t.check(st.Writes == plain.stats.Writes && st.Reads == plain.stats.Reads &&
		st.TotalFlips() == plain.stats.BitFlips && st.SlotsUsed == plain.stats.WriteSlots,
		"traced durable replay stats %+v differ from deuce.Memory %+v", st, plain.stats)
	t.check(bt.pager, "traced backend lost the mmap page path")

	snap := filepath.Join(dir, "state.dst")
	if err := saveSnapshot(s, snap); err != nil {
		return fail(err)
	}
	if err := s.(core.Durable).Close(); err != nil {
		return nil, err
	}
	opened := bt.open
	s, err = core.New(core.KindDeuce, params)
	if err != nil {
		return nil, err
	}
	defer s.(core.Durable).Close()
	openNs := bt.open.ns - opened.ns
	f, err := os.Open(snap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t0 := time.Now()
	if err := s.(core.Persistent).LoadState(f); err != nil {
		return nil, err
	}
	restoreS := time.Since(t0).Seconds()
	d.verify(t, s.ReadInto)

	diskRatio := 0.0
	if ioOK {
		diskRatio = float64(io1-io0) / float64(writes*64)
	}
	return map[string]metric{
		"backend.sync_ns":                  {bt.sync.perCall(), "ns"},
		"backend.sync_calls":               {float64(bt.sync.calls), "count"},
		"backend.disk_bytes_per_user_byte": {diskRatio, "ratio"},
		"backend.pager":                    {b2f(bt.pager), "bool"},
		"backend.open_s":                   {float64(openNs) / 1e9, "s"},
		"core.restore_s":                   {restoreS, "s"},
		"core.write_ns":                    {float64(write.ns-beInWrite) / float64(write.calls), "ns"},
		"core.slots_per_write":             {float64(st.SlotsUsed) / float64(st.Writes), "count"},
		"gc.allocs_per_op":                 {allocs / float64(writes), "count"},
		"gc.pause_s":                       {pause, "s"},
		"trace.overhead":                   {tracedS / (plain.wall - plain.reopenS), "x"},
	}, nil
}

// saveSnapshot writes the scheme's persistent image to path and flushes
// it, as Memory.PersistToFile does.
func saveSnapshot(s core.Scheme, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.(core.Persistent).SaveState(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
