package main

import (
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"deuce"
	"deuce/internal/core"
	"deuce/internal/kvstore"
	"deuce/internal/servefront"
)

// The serve workload: a closed loop of 2 clients, each blocking on its
// Get or Put, against the sharded front with DEUCE in every shard. Reads
// beside writes exercise the scheme's decrypt path and the shard locks;
// requests are generated in set-up, so no generator, wear leveler or
// timing model runs while it is measured.
const (
	serveClients = 2
	serveShards  = 8
	serveLines   = 16384 // 2048 lines per shard
	serveKeys    = 4096  // a quarter of the slots: probe chains stay short
	serveZipfS   = 1.1
	serveOps     = 500000 // per client per round
)

// serveOp is one pre-generated request.
type serveOp struct {
	put bool
	key int32
}

// serveSetup is the generated request streams and a preloaded front.
type serveSetup struct {
	opsPerClient int
	keys         []string
	ops          [][]serveOp // per client
	values       [][]string  // per client, per op: the value a Put stores
	lats         [][]int64   // per client latency buffers, reused by rounds
	all          []int64     // merged latencies
}

// setupServe generates every client's requests from the seed: Zipf-ranked
// keys, half reads. A Put of client c's i-th request stores
// "<key>@<c*opsPerClient+i+1>", so any value read back names the Put that
// stored it; the preload stores "<key>@0".
func setupServe(seed int64, opsPerClient int) *serveSetup {
	s := &serveSetup{opsPerClient: opsPerClient, keys: make([]string, serveKeys)}
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("k%07d", k)
	}
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(seed*serveClients + int64(c)))
		zipf := rand.NewZipf(rng, serveZipfS, 1, serveKeys-1)
		ops := make([]serveOp, opsPerClient)
		vals := make([]string, opsPerClient)
		for i := range ops {
			ops[i] = serveOp{put: rng.Intn(2) == 0, key: int32(zipf.Uint64())}
			if ops[i].put {
				vals[i] = s.keys[ops[i].key] + "@" + strconv.Itoa(c*opsPerClient+i+1)
			}
		}
		s.ops = append(s.ops, ops)
		s.values = append(s.values, vals)
		s.lats = append(s.lats, make([]int64, opsPerClient))
	}
	s.all = make([]int64, 0, serveClients*opsPerClient)
	return s
}

// newFront builds a sharded front with every key preloaded, so every Get
// must hit.
func (s *serveSetup) newFront() (*servefront.Sharded, error) {
	f, err := servefront.New(servefront.Config{Scheme: deuce.DEUCE, Shards: serveShards, Lines: serveLines})
	if err != nil {
		return nil, err
	}
	for _, k := range s.keys {
		if err := f.Put(k, k+"@0"); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// validValue reports whether v is a value some Put stored for key.
func (s *serveSetup) validValue(key int32, v []byte) bool {
	k := s.keys[key]
	if len(v) <= len(k) || string(v[:len(k)]) != k || v[len(k)] != '@' {
		return false
	}
	n := 0
	for _, b := range v[len(k)+1:] {
		if b < '0' || b > '9' {
			return false
		}
		n = n*10 + int(b-'0')
	}
	if n == 0 {
		return true
	}
	c, i := (n-1)/s.opsPerClient, (n-1)%s.opsPerClient
	return c < serveClients && s.ops[c][i].put && s.ops[c][i].key == key
}

// clientResult counts one client's failures in a round.
type clientResult struct{ errs, misses, wrong int64 }

// round runs every client's requests once against f and checks each
// reply.
func (s *serveSetup) round(f *servefront.Sharded, t *tally) sample {
	before := f.Stats()
	res := make([]clientResult, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dst := make([]byte, kvstore.MaxVal)
			lats, vals, r := s.lats[c], s.values[c], &res[c]
			for i, op := range s.ops[c] {
				key := s.keys[op.key]
				t0 := time.Now()
				if op.put {
					err := f.Put(key, vals[i])
					lats[i] = int64(time.Since(t0))
					if err != nil {
						r.errs++
					}
					continue
				}
				n, ok := f.Get(key, dst)
				lats[i] = int64(time.Since(t0))
				if !ok {
					r.misses++
				} else if !s.validValue(op.key, dst[:n]) {
					r.wrong++
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for c, r := range res {
		t.attempted += int64(s.opsPerClient)
		t.failed += r.errs + r.misses + r.wrong
		if r.errs+r.misses+r.wrong > 0 {
			t.notes = append(t.notes, fmt.Sprintf("FAIL serve client %d: %d errors, %d misses, %d wrong values", c, r.errs, r.misses, r.wrong))
		}
	}
	s.all = s.all[:0]
	for _, l := range s.lats {
		s.all = append(s.all, l...)
	}
	after := f.Stats()
	flips := float64(after.BitFlips-before.BitFlips) / float64(after.Writes-before.Writes)
	out := sample{wall: wall, opsPerS: float64(len(s.all)) / wall, simFlip: 100 * flips / float64(lineBits)}
	out.p50, out.p99 = latencyQuantiles(s.all)
	return out
}

func measureServe(cfg config) (map[string]metric, tally, error) {
	var t tally
	type built struct {
		s *serveSetup
		f *servefront.Sharded
	}
	b, setupS, err := repeatSetup(3, func() (built, error) {
		s := setupServe(cfg.seed, serveOps)
		f, err := s.newFront()
		return built{s, f}, err
	})
	if err != nil {
		return nil, t, err
	}
	samples, err := measureFor(cfg.seconds, func() (sample, error) { return b.s.round(b.f, &t), nil })
	if err != nil {
		return nil, t, err
	}
	m := endToEnd(samples, setupS, &t)
	// Each round starts where the last left the schemes' epoch state, so
	// only the first round's flips are comparable whatever the round count.
	m["sim_flip_pct"] = metric{samples[0].simFlip, "%"}
	return m, t, nil
}

// interleaved is the clients' requests merged round-robin: the order a
// single goroutine replays them in.
func (s *serveSetup) interleaved(fn func(op serveOp, value string)) {
	for i := 0; i < s.opsPerClient; i++ {
		for c := 0; c < serveClients; c++ {
			fn(s.ops[c][i], s.values[c][i])
		}
	}
}

// record lays a key and value out as kvstore does, for the line-level
// replays.
func record(dst []byte, key, value string) {
	clear(dst)
	dst[0], dst[1] = 1, byte(len(key))
	copy(dst[2:], key)
	dst[16] = byte(len(value))
	copy(dst[17:], value)
}

// serveLayers is the serve workload's traced replay: the 2-client round
// once more, then single-goroutine replays of the same requests through
// the front, the kvstore, deuce.Memory and the scheme over a traced
// array. full replays a whole round; otherwise a short probe.
func serveLayers(cfg config, full bool, t *tally) (map[string]metric, error) {
	ops := 25000
	if full {
		ops = serveOps
	}
	// GC pause covers set-up and one untraced round; allocations the
	// round alone.
	pauses := startGC()
	s := setupServe(cfg.seed, ops)
	n := float64(serveClients * ops)

	// The untraced 2-client round, for lock wait, shard balance and gc.
	f2, err := s.newFront()
	if err != nil {
		return nil, err
	}
	gc := startGC()
	s.round(f2, t)
	allocs, _ := gc.since()
	_, pause := pauses.since()
	var mean2 float64
	for _, l := range s.all {
		mean2 += float64(l)
	}
	mean2 /= n
	var total, most uint64
	for i := 0; i < serveShards; i++ {
		st := f2.ShardStats(i)
		total += st.Reads + st.Writes
		most = max(most, st.Reads+st.Writes)
	}

	// One client, bare and then timed per request, on fresh fronts.
	bare, err := s.newFront()
	if err != nil {
		return nil, err
	}
	dst := make([]byte, kvstore.MaxVal)
	start := time.Now()
	s.interleaved(func(op serveOp, v string) {
		if op.put {
			_ = bare.Put(s.keys[op.key], v) // checked by the timed replay below
		} else {
			bare.Get(s.keys[op.key], dst)
		}
	})
	bareS := time.Since(start).Seconds()
	f1, err := s.newFront()
	if err != nil {
		return nil, err
	}
	var get, put callTimer
	start = time.Now()
	s.interleaved(func(op serveOp, v string) {
		t0 := time.Now()
		if op.put {
			err := f1.Put(s.keys[op.key], v)
			put.since(t0)
			t.check(err == nil, "1-client front Put: %v", err)
			return
		}
		n, ok := f1.Get(s.keys[op.key], dst)
		get.since(t0)
		t.check(ok && s.validValue(op.key, dst[:n]), "1-client front Get %s: %q", s.keys[op.key], dst[:n])
	})
	timedS := time.Since(start).Seconds()
	mean1 := float64(get.ns+put.ns) / n

	// The kvstore alone, over one memory with all the front's lines.
	kv := kvstore.New(deuce.MustNew(deuce.Options{Lines: serveLines}))
	for _, k := range s.keys {
		if err := kv.Put(k, k+"@0"); err != nil {
			return nil, err
		}
	}
	var kvGet, kvPut callTimer
	s.interleaved(func(op serveOp, v string) {
		t0 := time.Now()
		if op.put {
			err := kv.Put(s.keys[op.key], v)
			kvPut.since(t0)
			t.check(err == nil, "kvstore Put: %v", err)
			return
		}
		_, ok := kv.GetInto(s.keys[op.key], dst)
		kvGet.since(t0)
		t.check(ok, "kvstore Get %s missed", s.keys[op.key])
	})

	lm, err := lineLayers(s, t)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"servefront.get_ns":          {get.perCall(), "ns"},
		"servefront.put_ns":          {put.perCall(), "ns"},
		"servefront.lock_wait_ns":    {mean2 - mean1, "ns"},
		"servefront.max_shard_share": {float64(most) / float64(total), "frac"},
		"kvstore.get_ns":             {kvGet.perCall(), "ns"},
		"kvstore.put_ns":             {kvPut.perCall(), "ns"},
		"gc.allocs_per_op":           {allocs / n, "count"},
		"gc.pause_s":                 {pause, "s"},
		"trace.overhead":             {timedS / bareS, "x"},
	}
	maps.Copy(m, lm)
	return m, nil
}

// lineLayers replays the requests as line reads and writes (the line a key
// hashes to) on deuce.Memory, then on the scheme over a traced array, and
// checks that both end with identical stats.
func lineLayers(s *serveSetup, t *tally) (map[string]metric, error) {
	mem, err := deuce.New(deuce.Options{Lines: serveLines})
	if err != nil {
		return nil, err
	}
	var arr *tracedArray
	sch, err := core.New(core.KindDeuce, core.Params{Lines: serveLines, MakeArray: arrayMaker(bareDevice, &arr)})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 64)
	slot := func(key string) uint64 { return kvstore.Hash(key) % serveLines }
	for _, k := range s.keys {
		record(buf, k, k+"@0")
		mem.Write(slot(k), buf)
		sch.Write(slot(k), buf)
	}
	var memRead, memWrite, coreRead, coreWrite callTimer
	var arrInRead, arrInWrite int64
	s.interleaved(func(op serveOp, v string) {
		line := slot(s.keys[op.key])
		if op.put {
			record(buf, s.keys[op.key], v)
			t0 := time.Now()
			mem.Write(line, buf)
			memWrite.since(t0)
			a0 := arr.totalNs()
			t0 = time.Now()
			sch.Write(line, buf)
			coreWrite.since(t0)
			arrInWrite += arr.totalNs() - a0
			return
		}
		t0 := time.Now()
		mem.ReadInto(line, buf)
		memRead.since(t0)
		a0 := arr.totalNs()
		t0 = time.Now()
		sch.ReadInto(line, buf)
		coreRead.since(t0)
		arrInRead += arr.totalNs() - a0
	})
	ms, cs := mem.Stats(), sch.Device().Stats()
	t.check(ms.Writes == cs.Writes && ms.Reads == cs.Reads && ms.BitFlips == cs.TotalFlips() && ms.WriteSlots == cs.SlotsUsed,
		"traced scheme replay stats %+v differ from deuce.Memory %+v", cs, ms)
	return map[string]metric{
		"memory.read_ns":       {memRead.perCall(), "ns"},
		"memory.write_ns":      {memWrite.perCall(), "ns"},
		"core.read_ns":         {float64(coreRead.ns-arrInRead) / float64(coreRead.calls), "ns"},
		"core.write_ns":        {float64(coreWrite.ns-arrInWrite) / float64(coreWrite.calls), "ns"},
		"core.slots_per_write": {float64(cs.SlotsUsed) / float64(cs.Writes), "count"},
	}, nil
}
