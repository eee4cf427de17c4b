package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Redial backoff bounds: the first attempt after a slot's connection
// breaks waits redialMinBackoff, doubling per failure up to
// redialMaxBackoff, so a down server costs a bounded trickle of dials
// rather than a reconnect storm.
const (
	redialMinBackoff = 20 * time.Millisecond
	redialMaxBackoff = time.Second
)

// ErrNoHealthyConn is returned by Conn (and wrapped by every pool
// operation that needs one) when every slot's connection is broken at
// the moment of the pick. Background redials are already running; the
// caller can retry shortly, or — on a multi-endpoint pool — let the
// operation helpers trigger a failover probe instead. Check with
// errors.Is.
var ErrNoHealthyConn = errors.New("client: no healthy connection in pool")

// poolSlot is one position in the pool. The slot, not the Conn, is the
// unit of liveness: a Conn never heals once broken, but a slot replaces
// its broken Conn with a freshly dialed one, so the pool's size is
// fixed while its members turn over.
type poolSlot struct {
	conn      atomic.Pointer[Conn] // always non-nil after Open succeeds
	redialing atomic.Bool          // one redial goroutine per slot at a time
}

// Client is a fixed-size pool of pipelined Conns to one server,
// spreading requests round-robin. One Conn already pipelines, but its
// replies arrive on a single reader goroutine; a small pool keeps many
// CPU-bound callers from serializing behind it. All methods are safe
// for concurrent use.
//
// The pool is self-healing: a connection that dies (server restart,
// network fault, idle-timeout disconnect) is detected on the next Conn
// selection, skipped in favor of a live one, and redialed in the
// background with exponential backoff (20ms doubling to a 1s cap).
// In-flight requests on the dead connection still fail with
// ErrConnClosed — the pool restores capacity, it does not replay
// requests — but no slot stays dead forever while the server is
// reachable.
//
// A pool built with OpenEndpoints additionally fails over: when every
// connection is broken, or a write is refused with ErrReadOnly, the
// pool probes the ranked endpoint list with HEALTH, re-points itself
// at the writable node with the highest promotion count, and retries
// the operation exactly once. Only never-sent (ErrNoHealthyConn) and
// definitively-refused (ErrReadOnly) operations are retried; an
// operation that died in flight (ErrConnClosed) is never replayed,
// because the server may have applied it.
type Client struct {
	endpoints []string     // ranked; index 0 is the preferred primary
	cur       atomic.Int32 // index into endpoints the pool currently targets
	timeout   time.Duration
	slots     []poolSlot
	next      atomic.Uint64
	closed    atomic.Bool
	m         *clientMetrics // never nil; default is unregistered

	fomu sync.Mutex    // serializes failover probes
	gen  atomic.Uint64 // bumped after each completed failover

	// tr is the pool's span store (nil pointer: tracing off),
	// propagated to every Conn the pool dials. Pool lifecycle events —
	// dial sweeps, redials, failover probes — are rare, so they are
	// always kept, each as its own single-span trace.
	tr atomic.Pointer[trace.Store]

	// sleep is time.Sleep unless a test injects a fake to drive the
	// redial backoff deterministically, or to hold redials so the test
	// decides when a slot heals. Every redial attempt waits on it first.
	sleep func(time.Duration)
}

// Open dials nconns connections (minimum 1) to addr. timeout bounds
// each dial and each request's reply wait (0: none).
func Open(addr string, nconns int, timeout time.Duration) (*Client, error) {
	return OpenEndpoints([]string{addr}, nconns, timeout)
}

// OpenObserved is Open with the pool's health metrics (redials,
// broken-conn skips, failovers, in-flight depth, request latency)
// registered on reg. A nil registry degrades to plain Open: the
// metrics still record, nothing scrapes them.
func OpenObserved(addr string, nconns int, timeout time.Duration, reg *obs.Registry) (*Client, error) {
	return openEndpoints([]string{addr}, nconns, timeout, reg)
}

// OpenEndpoints dials a pool against a RANKED endpoint list: the pool
// connects to the first reachable endpoint and, when that node dies or
// turns read-only under it, fails writes over to the best surviving
// endpoint (writable, highest promotion count, earliest rank breaking
// ties). Every endpoint should be a node of the same replication
// group; the pool never splits traffic across endpoints.
func OpenEndpoints(addrs []string, nconns int, timeout time.Duration) (*Client, error) {
	return openEndpoints(addrs, nconns, timeout, nil)
}

func openEndpoints(addrs []string, nconns int, timeout time.Duration, reg *obs.Registry) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no endpoints")
	}
	if nconns < 1 {
		nconns = 1
	}
	cl := &Client{
		endpoints: append([]string(nil), addrs...),
		timeout:   timeout,
		slots:     make([]poolSlot, nconns),
		sleep:     time.Sleep,
	}
	cl.m = defaultClientMetrics
	if reg != nil {
		cl.m = newClientMetrics(reg)
	}
	var firstErr error
	for start := range cl.endpoints {
		cl.cur.Store(int32(start))
		err := cl.dialAll()
		if err == nil {
			return cl, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// dialAll points every slot at the current endpoint, closing whatever
// the slot held before. All-or-nothing: on any dial failure the freshly
// dialed conns are closed and the slots keep their previous contents.
func (cl *Client) dialAll() error {
	addr := cl.addr()
	t0 := time.Now()
	fresh := make([]*Conn, len(cl.slots))
	for i := range fresh {
		c, err := DialTimeout(addr, cl.timeout)
		if err != nil {
			for _, f := range fresh[:i] {
				f.Close()
			}
			cl.traceDial(t0, len(fresh), i, errLocalFailure)
			return fmt.Errorf("client: conn %d/%d to %s: %w", i+1, len(fresh), addr, err)
		}
		c.m = cl.m
		if tr := cl.tr.Load(); tr != nil {
			c.SetTrace(tr)
		}
		fresh[i] = c
	}
	for i := range cl.slots {
		if old := cl.slots[i].conn.Swap(fresh[i]); old != nil {
			old.Close()
		}
		if cl.closed.Load() {
			fresh[i].Close()
		}
	}
	cl.traceDial(t0, len(fresh), len(fresh), 0)
	return nil
}

// traceDial records one always-kept single-span trace for a dial sweep
// that began at t0: In counts the connections wanted, Out the ones
// established (errCode nonzero when the sweep failed partway). No-op
// when tracing is off.
func (cl *Client) traceDial(t0 time.Time, wanted, dialed int, errCode byte) {
	tr := cl.tr.Load()
	if tr == nil {
		return
	}
	id := tr.NewID()
	tr.Record(trace.Span{
		Trace: id, ID: id,
		Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
		Kind: trace.KindDial, Err: errCode,
		In: int32(wanted), Out: int32(dialed),
	})
}

// SetTrace wires a span store into the pool and every connection it
// currently holds; connections dialed later inherit it. See
// Conn.SetTrace. Safe to call concurrently; a nil store is ignored.
func (cl *Client) SetTrace(st *trace.Store) {
	if st == nil {
		return
	}
	cl.tr.Store(st)
	for i := range cl.slots {
		if c := cl.slots[i].conn.Load(); c != nil {
			c.SetTrace(st)
		}
	}
}

// addr returns the endpoint the pool currently targets.
func (cl *Client) addr() string { return cl.endpoints[cl.cur.Load()] }

// Endpoint reports which configured endpoint the pool is currently
// pointed at — after a failover this is the promoted node's address.
func (cl *Client) Endpoint() string { return cl.addr() }

// Conn returns one of the pool's connections, round-robin, preferring
// live ones: a slot whose connection has died is skipped (and its
// background redial kicked off) in favor of the next live slot. Use it
// when an operation sequence needs the per-connection ordering
// guarantee (e.g. a put then a get that must observe it, without
// waiting for the put reply on the same goroutine). When every
// connection is down, Conn returns ErrNoHealthyConn (errors.Is-able)
// instead of blocking on recovery; redials for every slot are already
// under way when it does.
func (cl *Client) Conn() (*Conn, error) {
	n := uint64(len(cl.slots))
	start := cl.next.Add(1)
	for i := uint64(0); i < n; i++ {
		s := &cl.slots[(start+i)%n]
		c := s.conn.Load()
		if !c.broken() {
			return c, nil
		}
		cl.m.brokenSkips.Inc()
		cl.redial(s)
	}
	return nil, ErrNoHealthyConn
}

// do runs op against a pool connection, retrying exactly once after a
// successful failover when the first attempt either never reached a
// server (ErrNoHealthyConn) or was definitively refused by a read-only
// node (ErrReadOnly). Anything else — including ErrConnClosed, where
// the server may have applied the operation — is returned as-is, never
// replayed.
func (cl *Client) do(op func(*Conn) error) error {
	c, err := cl.Conn()
	if err == nil {
		err = op(c)
	}
	if err == nil || len(cl.endpoints) < 2 {
		return err
	}
	if !errors.Is(err, ErrNoHealthyConn) && !errors.Is(err, ErrReadOnly) {
		return err
	}
	if !cl.failover() {
		return err
	}
	c, cerr := cl.Conn()
	if cerr != nil {
		return cerr
	}
	return op(c)
}

// maxProbeTimeout caps how long one failover HEALTH probe may spend on
// a single endpoint (dial plus reply). Without a cap, an endpoint that
// accepts the connection but never answers — a half-dead process, a
// black-holing middlebox — would wedge the whole probe sweep on a pool
// opened with no request timeout, and with it every operation waiting
// to fail over.
const maxProbeTimeout = 2 * time.Second

// failover probes every endpoint with HEALTH and re-points the pool at
// the best writable node: highest promotion count wins, earliest rank
// breaks ties. Probes are serialized; a caller that lost the race to a
// probe that already moved the pool just reuses that result. Each
// endpoint's probe is individually deadline-bounded (the pool timeout,
// clamped to maxProbeTimeout) so one unresponsive endpoint delays the
// sweep, never wedges it. Reports whether the pool now targets a node
// believed writable.
func (cl *Client) failover() (ok bool) {
	g := cl.gen.Load()
	cl.fomu.Lock()
	defer cl.fomu.Unlock()
	if cl.gen.Load() != g {
		// Another caller completed a failover while we waited; its
		// outcome is as fresh as anything we could probe now.
		return true
	}
	if tr := cl.tr.Load(); tr != nil {
		t0 := time.Now()
		defer func() {
			var ec byte
			if !ok {
				ec = errLocalFailure
			}
			id := tr.NewID()
			tr.Record(trace.Span{
				Trace: id, ID: id,
				Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
				Kind: trace.KindFailover, Err: ec,
				In: int32(len(cl.endpoints)), Out: cl.cur.Load(),
			})
		}()
	}
	probeTO := cl.timeout
	if probeTO <= 0 || probeTO > maxProbeTimeout {
		probeTO = maxProbeTimeout
	}
	best := -1
	var bestProm uint64
	for i, addr := range cl.endpoints {
		c, err := DialTimeout(addr, probeTO)
		if err != nil {
			continue
		}
		h, err := c.Health()
		c.Close()
		if err != nil || h.ReadOnly {
			continue
		}
		if best == -1 || h.Promotions > bestProm {
			best, bestProm = i, h.Promotions
		}
	}
	if best == -1 {
		return false
	}
	cl.cur.Store(int32(best))
	if err := cl.dialAll(); err != nil {
		// The winner died between the probe and the dial. Leave cur
		// pointed at it — background redials keep trying — but report
		// failure so the caller surfaces its original error.
		return false
	}
	cl.gen.Add(1)
	cl.m.failovers.Inc()
	return true
}

// redial starts (at most) one background goroutine replacing the
// slot's broken connection. Attempts back off exponentially and stop
// when the pool is closed.
func (cl *Client) redial(s *poolSlot) {
	if cl.closed.Load() || !s.redialing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.redialing.Store(false)
		backoff := redialMinBackoff
		for {
			// Back off before every attempt, the first included: the
			// connection just broke, so its peer may be restarting.
			cl.sleep(backoff)
			if cl.closed.Load() {
				return
			}
			t0 := time.Now()
			c, err := DialTimeout(cl.addr(), cl.timeout)
			if err == nil {
				c.m = cl.m
				if tr := cl.tr.Load(); tr != nil {
					c.SetTrace(tr)
				}
				cl.m.redials.Inc()
				cl.traceDial(t0, 1, 1, 0)
				if old := s.conn.Swap(c); old != nil {
					old.Close()
				}
				if cl.closed.Load() {
					// Close ran while we were dialing and may have missed
					// the new conn; closing it here is idempotent either way.
					c.Close()
				}
				return
			}
			cl.m.redialFails.Inc()
			if backoff *= 2; backoff > redialMaxBackoff {
				backoff = redialMaxBackoff
			}
		}
	}()
}

// Close closes every connection in the pool and stops background
// redials. It returns the first connection-close error encountered
// (nil in the common case); the remaining connections are still closed
// either way.
func (cl *Client) Close() error {
	cl.closed.Store(true)
	var first error
	for i := range cl.slots {
		if c := cl.slots[i].conn.Load(); c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Get returns the value stored for key and whether it exists.
func (cl *Client) Get(key int64) (val int64, ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { val, ok, e = c.Get(key); return })
	return val, ok, err
}

// Put upserts the value for key and reports whether it was newly
// inserted.
func (cl *Client) Put(key, val int64) (ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { ok, e = c.Put(key, val); return })
	return ok, err
}

// PutTTL upserts the value for key with an absolute expiry epoch (unix
// seconds; 0: never expires) and reports whether it was newly inserted.
func (cl *Client) PutTTL(key, val, exp int64) (ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { ok, e = c.PutTTL(key, val, exp); return })
	return ok, err
}

// GetTTL returns the value and recorded absolute expiry (0: none) for
// key, and whether the key is live.
func (cl *Client) GetTTL(key int64) (val, exp int64, ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { val, exp, ok, e = c.GetTTL(key); return })
	return val, exp, ok, err
}

// Delete removes key and reports whether it was present.
func (cl *Client) Delete(key int64) (ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { ok, e = c.Delete(key); return })
	return ok, err
}

// PutBatch upserts every item in one request and returns the number of
// keys newly inserted.
func (cl *Client) PutBatch(items []Item) (n int, err error) {
	err = cl.do(func(c *Conn) (e error) { n, e = c.PutBatch(items); return })
	return n, err
}

// GetBatch looks up every key in one request; values and presence
// flags align with keys.
func (cl *Client) GetBatch(keys []int64) (vals []int64, ok []bool, err error) {
	err = cl.do(func(c *Conn) (e error) { vals, ok, e = c.GetBatch(keys); return })
	return vals, ok, err
}

// DeleteBatch removes every key in one request and returns the number
// that were present.
func (cl *Client) DeleteBatch(keys []int64) (n int, err error) {
	err = cl.do(func(c *Conn) (e error) { n, e = c.DeleteBatch(keys); return })
	return n, err
}

// Range returns up to max items with lo <= key <= hi in ascending key
// order; more reports truncation (resume with lo = last key + 1).
func (cl *Client) Range(lo, hi int64, max int) (items []Item, more bool, err error) {
	err = cl.do(func(c *Conn) (e error) { items, more, e = c.Range(lo, hi, max); return })
	return items, more, err
}

// Len returns the number of keys in the database.
func (cl *Client) Len() (n int, err error) {
	err = cl.do(func(c *Conn) (e error) { n, e = c.Len(); return })
	return n, err
}

// Checkpoint commits a checkpoint; when it returns, every operation
// acknowledged on the chosen connection is on disk. For a barrier over
// operations issued through the whole pool, checkpoint after the
// operations' replies have been received.
func (cl *Client) Checkpoint() (seq uint64, err error) {
	err = cl.do(func(c *Conn) (e error) { seq, e = c.Checkpoint(); return })
	return seq, err
}

// Health fetches the current endpoint's role, promotion count, and
// checkpoint position on one connection.
func (cl *Client) Health() (h Health, err error) {
	err = cl.do(func(c *Conn) (e error) { h, e = c.Health(); return })
	return h, err
}

// Ping round-trips a payload through the server on one connection.
func (cl *Client) Ping(payload []byte) error {
	return cl.do(func(c *Conn) error { return c.Ping(payload) })
}
