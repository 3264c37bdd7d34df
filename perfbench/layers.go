package main

import (
	"io"
	"time"

	"deuce/internal/backend"
	"deuce/internal/core"
	"deuce/internal/pcmdev"
	"deuce/internal/timing"
	"deuce/internal/trace"
)

// Decorators over the interfaces the program already accepts. Each one
// forwards every call unchanged and adds the call's host time to a
// counter, so a replay through them computes exactly what the untraced
// call computes (replay_test.go pins this) while splitting its time by
// layer. Like the objects they wrap, they are single-goroutine.

// callTimer accumulates calls and their total host time.
type callTimer struct {
	calls int64
	ns    int64
}

func (c *callTimer) since(start time.Time) {
	c.calls++
	c.ns += int64(time.Since(start))
}

// perCall is the mean time per call in nanoseconds.
func (c callTimer) perCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// tracedArray times the pcmdev.Array calls a scheme makes (installed
// through core.Params.MakeArray).
type tracedArray struct {
	inner pcmdev.Array
	write callTimer // Write
	peek  callTimer // Peek and PeekInto
	read  callTimer // Read and ReadInto
	load  callTimer // Load
}

var _ pcmdev.Array = (*tracedArray)(nil)

func (a *tracedArray) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	start := time.Now()
	r := a.inner.Write(line, data, meta)
	a.write.since(start)
	return r
}

func (a *tracedArray) Read(line uint64) ([]byte, []byte) {
	start := time.Now()
	d, m := a.inner.Read(line)
	a.read.since(start)
	return d, m
}

func (a *tracedArray) Peek(line uint64) ([]byte, []byte) {
	start := time.Now()
	d, m := a.inner.Peek(line)
	a.peek.since(start)
	return d, m
}

func (a *tracedArray) PeekInto(line uint64, data, meta []byte) {
	start := time.Now()
	a.inner.PeekInto(line, data, meta)
	a.peek.since(start)
}

func (a *tracedArray) ReadInto(line uint64, data, meta []byte) {
	start := time.Now()
	a.inner.ReadInto(line, data, meta)
	a.read.since(start)
}

func (a *tracedArray) Load(line uint64, data, meta []byte) {
	start := time.Now()
	a.inner.Load(line, data, meta)
	a.load.since(start)
}

func (a *tracedArray) Config() pcmdev.Config    { return a.inner.Config() }
func (a *tracedArray) Stats() pcmdev.Stats      { return a.inner.Stats() }
func (a *tracedArray) ResetStats()              { a.inner.ResetStats() }
func (a *tracedArray) PositionWrites() []uint64 { return a.inner.PositionWrites() }
func (a *tracedArray) LineWrites() []uint64     { return a.inner.LineWrites() }

// totalNs and totalCalls cover the calls a scheme's Write and Read make.
// Load is left out: it serves Install, which runs outside them.
func (a *tracedArray) totalNs() int64    { return a.write.ns + a.peek.ns + a.read.ns }
func (a *tracedArray) totalCalls() int64 { return a.write.calls + a.peek.calls + a.read.calls }

// arrayMaker returns a MakeArray that builds inner and keeps the traced
// wrapper in *out for the caller to read afterwards.
func arrayMaker(inner func(pcmdev.Config) (pcmdev.Array, error), out **tracedArray) func(pcmdev.Config) (pcmdev.Array, error) {
	return func(cfg pcmdev.Config) (pcmdev.Array, error) {
		a, err := inner(cfg)
		if err != nil {
			return nil, err
		}
		*out = &tracedArray{inner: a}
		return *out, nil
	}
}

// bareDevice builds the undecorated array a scheme gets by default.
func bareDevice(cfg pcmdev.Config) (pcmdev.Array, error) { return pcmdev.New(cfg) }

// backendTimes are the counters of every traced backend of one scheme.
type backendTimes struct {
	sync, read, write callTimer
	open              callTimer
	pager             bool // the array region kept the zero-copy page path
}

// tracedBackend times a backend.Backend (installed through
// core.Params.MakeBackend).
type tracedBackend struct {
	inner backend.Backend
	t     *backendTimes
}

func (b *tracedBackend) Pages() int    { return b.inner.Pages() }
func (b *tracedBackend) PageSize() int { return b.inner.PageSize() }
func (b *tracedBackend) Close() error  { return b.inner.Close() }

func (b *tracedBackend) ReadPage(page int, dst []byte) error {
	start := time.Now()
	err := b.inner.ReadPage(page, dst)
	b.t.read.since(start)
	return err
}

func (b *tracedBackend) WritePage(page int, src []byte) error {
	start := time.Now()
	err := b.inner.WritePage(page, src)
	b.t.write.since(start)
	return err
}

func (b *tracedBackend) Sync() error {
	start := time.Now()
	err := b.inner.Sync()
	b.t.sync.since(start)
	return err
}

// pagedBackend is a tracedBackend over a backend with a zero-copy page
// view. It forwards backend.Pager, so pcmdev keeps the mmap fast path
// exactly as it would without the decorator.
type pagedBackend struct {
	tracedBackend
	pager backend.Pager
}

func (b *pagedBackend) Page(page int) []byte { return b.pager.Page(page) }

// backendMaker wraps a MakeBackend so every backend it opens is traced
// into t, forwarding the Pager fast path where the inner backend has it.
func backendMaker(inner func(region string, pages, pageSize int) (backend.Backend, error), t *backendTimes) func(string, int, int) (backend.Backend, error) {
	return func(region string, pages, pageSize int) (backend.Backend, error) {
		start := time.Now()
		be, err := inner(region, pages, pageSize)
		t.open.since(start)
		if err != nil {
			return nil, err
		}
		tb := tracedBackend{inner: be, t: t}
		if p := backend.AsPager(be); p != nil {
			wrapped := &pagedBackend{tracedBackend: tb, pager: p}
			if region == core.RegionArray {
				t.pager = backend.AsPager(wrapped) != nil
			}
			return wrapped, nil
		}
		return &tb, nil
	}
}

// tracedSource times a trace.Source and stops it after a fixed number of
// events, as the timed runs size their event budget.
type tracedSource struct {
	inner     trace.Source
	remaining int
	next      callTimer
}

func (s *tracedSource) Next() (trace.Event, error) {
	if s.remaining <= 0 {
		return trace.Event{}, io.EOF
	}
	start := time.Now()
	e, err := s.inner.Next()
	s.next.since(start)
	if err == nil {
		s.remaining--
	}
	return e, err
}

// tracedCoster times a timing.SlotCoster.
type tracedCoster struct {
	inner timing.SlotCoster
	cost  callTimer
}

func (c *tracedCoster) WriteSlots(line uint64, data []byte) int {
	start := time.Now()
	n := c.inner.WriteSlots(line, data)
	c.cost.since(start)
	return n
}
