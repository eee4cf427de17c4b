package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// Phases of a run. Each op is counted in the phase in which it was
// sent; only the measured phases feed metrics.
const (
	phWarm = iota
	phMeasure
	phTraced
	phStop
	numPhases = phStop
)

// worker is one in-flight slot: it owns its keys, sends one op at a
// time on its connection, and checks every reply.
type worker struct {
	id   int
	conn *client.Conn
	g    *gen
	m    model

	ops    [numPhases]int64
	probes int64              // ops sent by probeAbsentClasses
	wkeys  [numPhases]int64   // keys written by the phase's ops
	lat    [numPhases][]int64 // ns; closed loop: from send, open loop: from due time
	late   [numPhases][]int64 // ns the generator held a sendable op

	spans   []span // traced phase and probes: every client.Conn call
	errs    int64
	errMsgs []string
}

// span is one traced client.Conn call, in ns since the run's clock base.
type span struct {
	worker int32
	class  opClass
	start  int64
	dur    int64
}

// loop drives the worker until the phase reaches phStop, or, with a
// probe, until the probe has no more ops. For an open loop (period > 0)
// op k is due at first+k*period and latency counts from that due time,
// so a stall also charges the ops it delayed.
func (w *worker) loop(rs *runState, period time.Duration, first time.Time, probe func(*worker) (op, bool)) {
	prev := rs.now()
	due := first
	for {
		ph := int(rs.phase.Load())
		if ph == phStop && probe == nil {
			return
		}
		var o op
		if probe != nil {
			var ok bool
			if o, ok = probe(w); !ok {
				return
			}
		} else {
			o = w.g.next()
		}
		sendable := prev // closed loop: the previous reply freed the slot
		if period > 0 {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sendable = rs.since(due)
		}
		t0 := rs.now()
		sendUnix := unixNow()
		r, err := execOp(w.conn, &o)
		t1 := rs.now()
		replyUnix := unixNow()
		if err != nil && rs.crashed.Load() {
			// The server was killed under this op: a write may or may
			// not have landed, so either state is legal after restart.
			if o.class.isWrite() {
				w.m.inDoubt(o)
			}
			return
		}
		switch {
		case probe != nil:
			w.probes++
		case period > 0:
			w.record(ph, o, t0-sendable, t1-sendable)
			due = due.Add(period)
		default:
			w.record(ph, o, t0-sendable, t1-t0)
		}
		if ph == phTraced || probe != nil {
			w.spans = append(w.spans, span{int32(w.id), o.class, t0, t1 - t0})
		}
		prev = t1
		if err == nil {
			if cerr := w.m.check(o, r, sendUnix, replyUnix, t1); cerr != nil {
				err = replyErr{cerr}
			}
		}
		if err != nil {
			w.fail(err)
			if !errIsReply(err) {
				return // the connection is gone; the run has failed
			}
		}
	}
}

func (w *worker) record(ph int, o op, late, lat int64) {
	w.ops[ph]++
	w.wkeys[ph] += o.keysWritten()
	w.late[ph] = append(w.late[ph], late)
	w.lat[ph] = append(w.lat[ph], lat)
}

func (w *worker) fail(err error) {
	w.errs++
	if len(w.errMsgs) < 3 {
		w.errMsgs = append(w.errMsgs, fmt.Sprintf("worker %d: %v", w.id, err))
	}
}

// replyErr marks a mismatch the model found, as opposed to a transport
// failure.
type replyErr struct{ error }

func errIsReply(err error) bool {
	_, ok := err.(replyErr)
	return ok
}

// runState is what one run's workers share: a clock of ns since the
// run began, the phase, and whether the server has been killed under
// load (after which transport errors are the expected end of a worker).
type runState struct {
	base    time.Time
	phase   atomic.Int32
	crashed atomic.Bool
}

func (c *runState) now() int64              { return int64(time.Since(c.base)) }
func (c *runState) since(t time.Time) int64 { return int64(t.Sub(c.base)) }
func unixNow() float64                      { return float64(time.Now().UnixNano()) / 1e9 }

// execOp sends o on c and returns the reply in the model's shape.
// Write values are the key's next version.
func execOp(c *client.Conn, o *op) (reply, error) {
	s := o.sp
	k := s.key(o.idx)
	next := func(i int) int64 { return valueOf(s.key(i), s.state(i).ver+1) }
	var r reply
	var err error
	switch o.class {
	case cGet:
		r.val, r.ok, err = c.Get(k)
	case cPut:
		r.ok, err = c.Put(k, next(o.idx))
	case cDelete:
		r.ok, err = c.Delete(k)
	case cNSGet:
		r.val, r.ok, err = c.NSGet(s.ns, k)
	case cNSPut:
		r.ok, err = c.NSPut(s.ns, k, next(o.idx))
	case cGetTTL:
		r.val, r.exp, r.ok, err = c.GetTTL(k)
	case cPutTTL:
		o.exp = time.Now().Unix() + ttlSeconds
		r.ok, err = c.PutTTL(k, next(o.idx), o.exp)
	case cGetBatch:
		keys := make([]int64, batchKeys)
		for j := range keys {
			keys[j] = s.key(o.idx + j)
		}
		r.vals, r.oks, err = c.GetBatch(keys)
	case cPutBatch:
		items := make([]client.Item, batchKeys)
		for j := range items {
			items[j] = client.Item{Key: s.key(o.idx + j), Val: next(o.idx + j)}
		}
		r.n, err = c.PutBatch(items)
	case cRange:
		var items []client.Item
		items, r.more, err = c.Range(k, s.hiKey(), rangeItems)
		for _, it := range items {
			r.items = append(r.items, rangeItem{it.Key, it.Val})
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", o.class, err)
	}
	return r, nil
}

// checkpointer sends a client CHECKPOINT once a second on one of the
// workload's connections, timing each round trip, and records when
// the last acknowledged one was sent: the durability cut. Each
// CHECKPOINT goes out at a random point of its second, so how often it
// meets hidbd's own once-a-second checkpointer does not hinge on the
// phase between the two clocks, which differs from run to run.
type checkpointer struct {
	rs   *runState
	rtts []span // start and duration of each acknowledged CHECKPOINT
	cut  int64
	err  error
	stop chan struct{}
	done chan struct{}
}

func startCheckpointer(c *client.Conn, rs *runState, seed uint64) *checkpointer {
	cp := &checkpointer{rs: rs, stop: make(chan struct{}), done: make(chan struct{})}
	rng := rand.New(rand.NewPCG(seed, 0xc4ec))
	go func() {
		defer close(cp.done)
		slot := rs.base
		for {
			slot = slot.Add(time.Second)
			due := slot.Add(-time.Duration(rng.Int64N(int64(time.Second))))
			t := time.NewTimer(time.Until(due))
			select {
			case <-cp.stop:
				t.Stop()
				return
			case <-t.C:
			}
			t0 := rs.now()
			if _, err := c.Checkpoint(); err != nil {
				if !rs.crashed.Load() {
					cp.err = err
				}
				return
			}
			cp.rtts = append(cp.rtts, span{start: t0, dur: rs.now() - t0})
			cp.cut = t0
		}
	}()
	return cp
}

// between returns, sorted, the round trips of the CHECKPOINTs sent
// between a and b.
func (cp *checkpointer) between(a, b time.Time) []int64 {
	var out []int64
	for _, r := range cp.rtts {
		if r.start >= cp.rs.since(a) && r.start < cp.rs.since(b) {
			out = append(out, r.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// finish stops the checkpointer and waits for an in-flight CHECKPOINT.
func (cp *checkpointer) finish() {
	close(cp.stop)
	<-cp.done
}

// runWorkers starts fn on every worker and waits for all of them.
func runWorkers(ws []*worker, fn func(*worker)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
