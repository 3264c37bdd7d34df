// Package timing is an event-driven performance model of a multi-core
// system with a PCM main memory, reproducing the mechanism behind the
// paper's Figures 15-17: writes occupy a bank for one or more 128-bit write
// slots (150 ns each, §6.1 / Table 1), a global current budget caps how
// many slots may program simultaneously (ref [22]), reads (75 ns) have
// priority over writes but cannot preempt a slot in flight, and cores stall
// on read misses. Fewer bit flips → fewer slots per write → banks and the
// current budget free up → reads wait less → the cores run faster.
//
// The model deliberately keeps the core side simple (in-order issue at a
// fixed IPC between memory events, full stall on L4 read misses, posted
// writebacks with finite write buffering): the paper's speedups are memory
// effects, and this is the minimal machine that exhibits them.
//
// Concurrency: the sequential engine is single-owner state driven by one
// goroutine. The sharded engine partitions lines across shards that each
// run the sequential algorithm on their own goroutine; a line belongs to
// exactly one shard, enforced by ErrSharedLine, and the merge of shard
// timelines is deterministic — sharded and sequential runs are
// bit-identical by contract (DESIGN.md §9, pinned by the differential
// suite in this package).
package timing

import (
	"fmt"
	"io"

	"deuce/internal/trace"
)

// Config describes the simulated machine (defaults follow Table 1).
type Config struct {
	// Cores is the number of CPU cores; 0 means 8.
	Cores int
	// IPC is each core's instruction throughput between memory events;
	// 0 means 4 (4-wide issue).
	IPC float64
	// ClockGHz is the core clock; 0 means 4.
	ClockGHz float64
	// ReadLatencyNs is the PCM array read latency; 0 means 75.
	ReadLatencyNs float64
	// SlotLatencyNs is the latency of one 128-bit write slot; 0 means 150.
	SlotLatencyNs float64
	// Banks is the number of independently-schedulable PCM banks;
	// 0 means 32 (4 ranks x 8 banks).
	Banks int
	// MaxConcurrentSlots is the global write-current budget expressed in
	// simultaneously-programming slots; 0 means 16.
	MaxConcurrentSlots int
	// WriteBufferSlots is the per-bank write backlog limit in slots;
	// a core posting a write to a full bank stalls. 0 means 32.
	WriteBufferSlots int
	// WritePausing lets an arriving read cancel a write slot in flight
	// at its bank (write cancellation/pausing, paper ref [6]): the read
	// starts immediately and the cancelled slot restarts from scratch
	// later. Off by default, matching the paper's baseline.
	WritePausing bool
}

func (c *Config) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.IPC == 0 {
		c.IPC = 4
	}
	if c.ClockGHz == 0 {
		c.ClockGHz = 4
	}
	if c.ReadLatencyNs == 0 {
		c.ReadLatencyNs = 75
	}
	if c.SlotLatencyNs == 0 {
		c.SlotLatencyNs = 150
	}
	if c.Banks == 0 {
		c.Banks = 32
	}
	if c.MaxConcurrentSlots == 0 {
		c.MaxConcurrentSlots = 16
	}
	if c.WriteBufferSlots == 0 {
		c.WriteBufferSlots = 32
	}
}

func (c Config) validate() error {
	if c.Cores < 1 || c.Banks < 1 || c.MaxConcurrentSlots < 1 || c.WriteBufferSlots < 1 {
		return fmt.Errorf("timing: non-positive machine dimension in %+v", c)
	}
	if c.IPC <= 0 || c.ClockGHz <= 0 || c.ReadLatencyNs <= 0 || c.SlotLatencyNs <= 0 {
		return fmt.Errorf("timing: non-positive rate or latency in %+v", c)
	}
	return nil
}

// Result summarizes one timing run.
type Result struct {
	// ExecNs is the simulated execution time in nanoseconds.
	ExecNs float64
	// Instructions is the total instruction count across cores.
	Instructions uint64
	// Reads and Writes are the serviced request counts.
	Reads, Writes uint64
	// SlotsIssued is the total write slots programmed.
	SlotsIssued uint64
	// AvgReadLatencyNs is the mean read miss service latency including
	// queueing.
	AvgReadLatencyNs float64
	// WriteStallNs is the total core time lost to write-buffer
	// backpressure.
	WriteStallNs float64
	// PausedSlots counts write slots cancelled by arriving reads
	// (non-zero only with Config.WritePausing).
	PausedSlots uint64
}

// IPCAggregate returns instructions per nanosecond over the whole run.
func (r Result) IPCAggregate() float64 {
	if r.ExecNs == 0 {
		return 0
	}
	return float64(r.Instructions) / r.ExecNs
}

// SlotCoster maps a writeback to the number of write slots it needs. The
// experiment harness implements this by running the writeback through a
// core.Scheme against the PCM device and reporting the device cost.
type SlotCoster interface {
	// WriteSlots applies the writeback and returns its slot count
	// (0 slots means nothing changed; the controller still dequeues it).
	WriteSlots(line uint64, data []byte) int
}

// SlotCosterFunc adapts a function to the SlotCoster interface.
type SlotCosterFunc func(line uint64, data []byte) int

// WriteSlots implements SlotCoster.
func (f SlotCosterFunc) WriteSlots(line uint64, data []byte) int { return f(line, data) }

// event is a heap entry.
type event struct {
	at    float64
	kind  eventKind
	core  int
	bank  int
	token uint64 // validity token for cancellable slot completions
}

type eventKind uint8

const (
	evIssue eventKind = iota // core issues its next trace event
	evReadDone
	evSlotDone
)

// eventHeap is a binary min-heap on at. push and pop are container/heap's
// Push/Pop with its up/down sift loops ported verbatim onto the concrete
// type, so events with equal times pop in exactly the order they would
// through container/heap — the simulation's results depend on that order —
// without boxing every event in an interface.
type eventHeap []event

// push adds e to the heap.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].at < h[j1].at {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// bankState tracks one bank's occupancy.
type bankState struct {
	busy       bool
	busyWrite  bool   // current service is a write slot
	token      uint64 // bumps to invalidate a cancelled slot's completion
	readQ      fifo[pendingRead]
	writeSlots int // backlog of write slots queued at this bank
}

type pendingRead struct {
	core    int
	arrived float64
}

// fifo is a first-in first-out queue that reuses its backing array: pops
// advance a head index, and the array is compacted only when a push finds
// it full, so a queue allocates only while it grows to its peak length.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// coreState tracks one core.
type coreState struct {
	time    float64     // when the core can issue its next event
	next    trace.Event // the event to issue, valid while pending
	pending bool
	done    bool
}

// Simulator runs a trace through the machine.
type Simulator struct {
	cfg    Config
	coster SlotCoster

	banks []bankState
	cores []coreState

	activeSlots int
	heap        eventHeap

	res          Result
	readLatSum   float64
	pendingByCPU []fifo[trace.Event]
	src          trace.Source
	srcDone      bool
	remaining    int // trace events left to issue

	// waiters[bank] holds cores stalled on that bank's write buffer.
	waiters [][]int
}

// NewSimulator builds a Simulator over a trace source and a slot coster.
func NewSimulator(cfg Config, src trace.Source, coster SlotCoster) (*Simulator, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil || coster == nil {
		return nil, fmt.Errorf("timing: nil source or coster")
	}
	s := &Simulator{
		cfg:          cfg,
		coster:       coster,
		banks:        make([]bankState, cfg.Banks),
		cores:        make([]coreState, cfg.Cores),
		pendingByCPU: make([]fifo[trace.Event], cfg.Cores),
		src:          src,
		waiters:      make([][]int, cfg.Banks),
	}
	return s, nil
}

// nsPerInstr converts instruction gaps to nanoseconds.
func (s *Simulator) nsPerInstr() float64 { return 1 / (s.cfg.IPC * s.cfg.ClockGHz) }

// pull fetches the next trace event for a core, buffering events of other
// cores encountered along the way. Returns false at end of trace.
func (s *Simulator) pull(core int) (trace.Event, bool) {
	if q := &s.pendingByCPU[core]; q.len() > 0 {
		return q.pop(), true
	}
	for !s.srcDone {
		e, err := s.src.Next()
		if err != nil {
			s.srcDone = true
			break
		}
		cpu := int(e.CPU) % s.cfg.Cores
		if cpu == core {
			return e, true
		}
		s.pendingByCPU[cpu].push(e)
	}
	return trace.Event{}, false
}

// Run simulates until maxEvents trace events have been issued (or the
// source ends), then drains outstanding memory traffic.
func (s *Simulator) Run(maxEvents int) (Result, error) {
	if maxEvents <= 0 {
		return Result{}, fmt.Errorf("timing: maxEvents must be positive, got %d", maxEvents)
	}
	s.remaining = maxEvents
	// Prime every core with its first event. Each core schedules its own
	// next issue when it becomes ready again (immediately for posted
	// writes, at read completion for reads, at buffer drain for stalls).
	for c := range s.cores {
		s.scheduleNextIssue(c)
	}

	for len(s.heap) > 0 {
		e := s.heap.pop()
		switch e.kind {
		case evIssue:
			s.issue(e.core, e.at)
		case evReadDone:
			s.readDone(e.core, e.bank, e.at)
		case evSlotDone:
			if e.token == s.banks[e.bank].token {
				s.slotDone(e.bank, e.at)
			} // else: this slot was cancelled by a read
		}
	}
	// Execution time: the last core activity.
	for _, c := range s.cores {
		if c.time > s.res.ExecNs {
			s.res.ExecNs = c.time
		}
	}
	if s.res.Reads > 0 {
		s.res.AvgReadLatencyNs = s.readLatSum / float64(s.res.Reads)
	}
	return s.res, nil
}

// scheduleNextIssue pulls the core's next trace event and schedules its
// issue at core.time + gap. It must only be called when the core is ready
// (no stall outstanding).
func (s *Simulator) scheduleNextIssue(core int) {
	if s.remaining <= 0 {
		s.cores[core].done = true
		return
	}
	e, ok := s.pull(core)
	if !ok {
		s.cores[core].done = true
		return
	}
	s.remaining--
	c := &s.cores[core]
	gapNs := float64(e.Gap) * s.nsPerInstr()
	c.next = e
	c.pending = true
	c.time += gapNs
	s.res.Instructions += uint64(e.Gap)
	s.heap.push(event{at: c.time, kind: evIssue, core: core})
}

// issue processes a core's trace event at time t.
func (s *Simulator) issue(core int, t float64) {
	c := &s.cores[core]
	if !c.pending {
		return
	}
	e := c.next
	c.pending = false
	bank := int(e.Line) % s.cfg.Banks
	switch e.Kind {
	case trace.Read:
		s.res.Reads++
		b := &s.banks[bank]
		b.readQ.push(pendingRead{core: core, arrived: t})
		if s.cfg.WritePausing && b.busy && b.busyWrite {
			// Cancel the in-flight slot: its completion event goes
			// stale and its work stays in the backlog for a retry.
			b.token++
			b.busy = false
			s.activeSlots--
			s.res.PausedSlots++
			// The freed current budget may unblock another bank.
			if s.activeSlots == s.cfg.MaxConcurrentSlots-1 {
				for i := range s.banks {
					if s.activeSlots >= s.cfg.MaxConcurrentSlots {
						break
					}
					if i != bank {
						s.kickBank(i, t)
					}
				}
			}
		}
		s.kickBank(bank, t)
		// The core stalls; its time advances when evReadDone fires.
	case trace.Writeback:
		s.res.Writes++
		slots := s.coster.WriteSlots(e.Line, e.Data)
		if slots > 0 {
			b := &s.banks[bank]
			if b.writeSlots+slots > s.cfg.WriteBufferSlots {
				// Write buffer full: core stalls until this
				// bank drains below the limit.
				s.waiters[bank] = append(s.waiters[bank], core)
				b.writeSlots += slots
				s.res.SlotsIssued += uint64(slots)
				s.kickBank(bank, t)
				return
			}
			b.writeSlots += slots
			s.res.SlotsIssued += uint64(slots)
			s.kickBank(bank, t)
		}
		// Posted write: core continues immediately.
		s.coreReady(core, t)
	}
}

// coreReady resumes a core at time t.
func (s *Simulator) coreReady(core int, t float64) {
	c := &s.cores[core]
	if t > c.time {
		c.time = t
	}
	if !c.pending && !c.done {
		s.scheduleNextIssue(core)
	}
}

// kickBank starts the next piece of work on a bank if it is idle:
// reads first, then one write slot if the global budget allows.
func (s *Simulator) kickBank(bank int, t float64) {
	b := &s.banks[bank]
	if b.busy {
		return
	}
	if b.readQ.len() > 0 {
		r := b.readQ.pop()
		b.busy = true
		b.busyWrite = false
		done := t + s.cfg.ReadLatencyNs
		s.readLatSum += done - r.arrived
		s.heap.push(event{at: done, kind: evReadDone, core: r.core, bank: bank})
		return
	}
	if b.writeSlots > 0 && s.activeSlots < s.cfg.MaxConcurrentSlots {
		b.busy = true
		b.busyWrite = true
		s.activeSlots++
		s.heap.push(event{at: t + s.cfg.SlotLatencyNs, kind: evSlotDone, bank: bank, token: b.token})
	}
}

// readDone completes a read: the bank frees and the waiting core resumes.
func (s *Simulator) readDone(core, bank int, t float64) {
	s.banks[bank].busy = false
	s.kickBank(bank, t)
	s.coreReady(core, t)
}

// slotDone completes one write slot.
func (s *Simulator) slotDone(bank int, t float64) {
	b := &s.banks[bank]
	b.busy = false
	s.activeSlots--
	b.writeSlots--
	// Wake cores stalled on this bank's write buffer once below limit.
	if b.writeSlots < s.cfg.WriteBufferSlots && len(s.waiters[bank]) > 0 {
		for _, core := range s.waiters[bank] {
			stallEnd := t
			if stallEnd > s.cores[core].time {
				s.res.WriteStallNs += stallEnd - s.cores[core].time
			}
			s.coreReady(core, stallEnd)
		}
		s.waiters[bank] = s.waiters[bank][:0]
	}
	s.kickBank(bank, t)
	// The freed budget may unblock other banks.
	if s.activeSlots == s.cfg.MaxConcurrentSlots-1 {
		for i := range s.banks {
			if s.activeSlots >= s.cfg.MaxConcurrentSlots {
				break
			}
			s.kickBank(i, t)
		}
	}
}

// DumpState writes a debugging snapshot to w.
func (s *Simulator) DumpState(w io.Writer) {
	fmt.Fprintf(w, "activeSlots=%d heap=%d\n", s.activeSlots, len(s.heap))
	for i, b := range s.banks {
		if b.busy || b.writeSlots > 0 || b.readQ.len() > 0 {
			fmt.Fprintf(w, "bank %d: busy=%v readQ=%d writeSlots=%d\n", i, b.busy, b.readQ.len(), b.writeSlots)
		}
	}
}
