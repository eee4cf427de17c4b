package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
)

// ErrServerClosed is returned by Serve and ListenAndServe after
// Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value is production-ready defaults.
type Config struct {
	// MaxConns bounds concurrently served connections (0: 1024). A
	// connection over the limit receives an ErrCodeBusy error frame and
	// is closed.
	MaxConns int
	// ReadTimeout is the idle deadline: a connection that sends no
	// frame for this long is closed (0: 5 minutes; negative: none).
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply flush (0: 30 seconds; negative:
	// none). A peer that stops reading is disconnected rather than
	// allowed to pin server memory.
	WriteTimeout time.Duration
	// MaxPayload caps accepted frame payloads (0: proto.MaxPayload).
	MaxPayload int
	// MaxRangeItems caps the items in one RANGE reply (0: 4096; always
	// clamped to proto.MaxRangeItems so the reply fits a frame). Longer
	// scans paginate: the reply's more flag tells the client to reissue
	// from its last key + 1.
	MaxRangeItems int
	// WriteQueue is the coalescer's queue depth in operations
	// (0: 4096); submitters block when it is full.
	WriteQueue int
	// MaxWriteBatch caps one coalesced ApplyBatch (0: 4096).
	MaxWriteBatch int
	// ReadOnly makes this a read replica: PUT, DEL, mutating BATCH
	// kinds, and CHECKPOINT are answered with ErrCodeReadOnly (the
	// connection stays open — reads continue). SHARDHASH/SYNC still
	// serve the node's own last installed checkpoint, so replicas can
	// chain off replicas. Promote lifts the restriction at runtime.
	ReadOnly bool
	// OnPromote, if set, runs inside Promote BEFORE writes are accepted.
	// A replica wires its anti-entropy shutdown here: the callback must
	// not return until no further checkpoint install can land, or a
	// stale install could clobber post-promotion writes.
	OnPromote func()
	// PromoteBackground makes Promote start the DB's background
	// checkpointer (replicas open their DB with NoBackground — installs,
	// not local checkpoints, keep the directory current — so a promoted
	// primary needs the checkpointer brought up).
	PromoteBackground bool
	// MaxSyncChunk caps the image bytes in one SYNC reply (0: 256 KiB;
	// always clamped to proto.MaxSyncChunk so the reply fits a frame).
	MaxSyncChunk int
	// SweepInterval is the expiry sweeper's poll period (0: 1 second;
	// negative: no sweeper). The interval only bounds how soon after an
	// epoch transition the sweeper NOTICES it — sweeps themselves are
	// epoch-triggered (at most one per epoch, of exactly the entries
	// already dead at it), so poll frequency never reaches the disk
	// state. Read-only replicas never run a sweeper: their dead entries
	// leave when the primary's swept checkpoint ships.
	SweepInterval time.Duration
	// Metrics registers the server's metric set — per-opcode latency
	// histograms, phase timings (decode → coalesce-wait → apply →
	// encode → flush), and counter mirrors — on the given registry,
	// scraped via its /metrics handler. nil: the same recording happens
	// into unregistered instances (the hot path never branches on
	// observability) and is exposed nowhere.
	Metrics *obs.Registry
	// SlowOpThreshold enables the sampled slow-op structured log:
	// operations whose total latency reaches the threshold are recorded
	// to SlowOpLog, rate-limited per second (0: disabled). The record
	// format is forensically clean by construction — opcode, sizes,
	// shard index, durations, request id; never key or value bytes. See
	// internal/obs.SlowOp and docs/OBSERVABILITY.md.
	SlowOpThreshold time.Duration
	// SlowOpLog receives slow-op records (nil: disabled).
	SlowOpLog io.Writer
	// NSQuota caps each tenant namespace's live key count (0: unlimited).
	// An NSPUT that would grow a tenant past the quota — upserts of
	// existing keys always pass — is refused with ErrCodeQuota. The check
	// is exact: it runs on the coalescer goroutine, serialized with every
	// other namespaced write.
	NSQuota int
	// Trace is the span store request traces are recorded into (nil:
	// tracing off, and every trace branch below reduces to one nil
	// check). A request is KEPT — its span tree recorded — when the
	// client head-sampled it (trace-context sampled flag), when the
	// server head-samples it (the store's rate; only requests arriving
	// with no trace context, so a tracing client's sampling decision is
	// never second-guessed), when it crosses the slow-op threshold, or
	// when it ends in a protocol error; everything else records
	// nothing. Kept server spans carry the client's trace id so
	// /debug/traces stitches the cross-node tree. See internal/trace
	// and docs/OBSERVABILITY.md.
	Trace *trace.Store
}

func (c Config) withDefaults() Config {
	// Sizes get their defaults for any non-positive value (a negative
	// size would panic make(chan)); only the timeouts use negative to
	// mean "none".
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxPayload <= 0 || c.MaxPayload > proto.MaxPayload {
		c.MaxPayload = proto.MaxPayload
	}
	if c.MaxRangeItems <= 0 || c.MaxRangeItems > proto.MaxRangeItems {
		// The protocol bound keeps every RANGE reply under the frame
		// payload cap; a larger configured value could emit frames no
		// client can read.
		if c.MaxRangeItems > proto.MaxRangeItems {
			c.MaxRangeItems = proto.MaxRangeItems
		} else {
			c.MaxRangeItems = 4096
		}
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 4096
	}
	if c.MaxWriteBatch <= 0 {
		c.MaxWriteBatch = 4096
	}
	if c.MaxSyncChunk <= 0 {
		c.MaxSyncChunk = 256 << 10
	} else if c.MaxSyncChunk > proto.MaxSyncChunk {
		c.MaxSyncChunk = proto.MaxSyncChunk
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	return c
}

// Server serves the hidbd wire protocol over a durable.DB. Create one
// with New, start it with Serve or ListenAndServe (or hand it raw
// connections via ServeConn), and stop it with Shutdown (graceful,
// final checkpoint) or Close (severed connections, no checkpoint). The
// Server does not own the DB: closing the DB is the caller's job, after
// the server has stopped.
type Server struct {
	db   *durable.DB
	cfg  Config
	st   stats
	sm   *serverMetrics
	slow *obs.SlowLog
	bat  *batcher
	tr   *trace.Store // nil: tracing off

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	sem       chan struct{}

	closing atomic.Bool    // draining: reject new work (set under mu)
	batOnce sync.Once      // starts the coalescer (and sweeper) on first use
	wg      sync.WaitGroup // live connection handlers (Add under mu)

	// readOnly is Config.ReadOnly made switchable at runtime; Promote
	// clears it, Demote sets it. promoteMu serializes role changes so
	// the refuse-on-already-writable check and the flip are atomic.
	readOnly   atomic.Bool
	promotions atomic.Uint64
	promoteMu  sync.Mutex

	start time.Time // for the uptime stat

	// Expiry sweeper: an epoch-triggered loop that feeds conditional
	// expire-deletes through the write coalescer. sweepDone is non-nil
	// exactly when the goroutine was started (under batOnce).
	sweep     *expiry.Schedule
	sweepStop chan struct{}
	sweepOnce sync.Once
	sweepDone chan struct{}

	// One-entry cache of the last shard image served to a SYNC fetch,
	// so a replica pulling an image chunk by chunk costs one disk read,
	// not one per chunk. Content-addressed (and namespace-qualified:
	// syncNS is "" for the default keyspace), so it can never serve the
	// wrong bytes — at worst it misses.
	syncMu    sync.Mutex
	syncNS    string
	syncIdx   int
	syncHash  [32]byte
	syncImage []byte
}

// New returns an unstarted server over db.
func New(db *durable.DB, cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		db:        db,
		cfg:       c,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*conn]struct{}{},
		sem:       make(chan struct{}, c.MaxConns),
		start:     time.Now(),
		sweep:     expiry.NewSchedule(db.Clock()),
		sweepStop: make(chan struct{}),
	}
	s.readOnly.Store(c.ReadOnly)
	s.tr = c.Trace
	s.sm = newServerMetrics(c.Metrics)
	s.slow = obs.NewSlowLog(c.SlowOpLog, c.SlowOpThreshold, c.Metrics)
	if c.Metrics != nil {
		registerServerFuncs(c.Metrics, s)
	}
	s.bat = newBatcher(s)
	if c.Trace != nil {
		// Synchronous barriers (CHECKPOINT, DROPNS) thread their trace
		// into the durable layer so checkpoint/sweep spans join the
		// requesting trace; background checkpoints mint their own.
		db.SetTrace(c.Trace)
	}
	return s
}

// startBatcher launches the coalescer — and the expiry sweeper that
// submits through it — exactly once. The sweeper runs on replicas too
// (so a later Promote needs no new goroutine, which would race
// shutdown) but sweepOnceNow is a no-op while the node is read-only.
func (s *Server) startBatcher() {
	s.batOnce.Do(func() {
		go s.bat.run()
		if s.cfg.SweepInterval > 0 {
			s.sweepDone = make(chan struct{})
			go s.sweepLoop()
		}
	})
}

// sweepLoop polls the sweep schedule. The ticker only bounds reaction
// latency; what gets removed is a pure function of (contents, epoch).
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
		}
		s.sweepOnceNow()
	}
}

// sweepOnceNow runs one epoch-triggered sweep if one is due: list the
// keys already dead at the current epoch and push conditional
// expire-deletes through the write coalescer, so the physical removals
// serialize with the pipelined client writes they race — an expire op
// re-checks the entry's recorded expiry under the shard lock, so a key
// a client resurrects mid-sweep survives.
func (s *Server) sweepOnceNow() {
	if s.readOnly.Load() {
		// A replica's dead entries leave when the primary's swept
		// checkpoint ships. The role check comes BEFORE Due() so epochs
		// that pass while read-only stay pending: the first sweep after
		// a promotion covers everything dead at that moment.
		return
	}
	epoch, due := s.sweep.Due()
	if !due {
		return
	}
	keys := s.db.Store().ExpiredKeys(epoch, nil)
	for _, k := range keys {
		s.bat.submit(writeReq{request: request{key: k}, exp: epoch, expire: true})
	}
	s.sweep.MarkDone(epoch)
	if len(keys) > 0 {
		s.st.sweeps.Add(1)
	}
}

// stopSweeper stops the sweep loop and waits for it to exit. It must
// run before the batcher closes — the loop submits into the batcher's
// queue.
func (s *Server) stopSweeper() {
	s.sweepOnce.Do(func() { close(s.sweepStop) })
	if s.sweepDone != nil {
		<-s.sweepDone
	}
}

// ErrNotReplica is returned by Promote on a node that is already
// writable — a double promotion, or a PROMOTE aimed at the primary.
var ErrNotReplica = errors.New("server: node is already writable")

// Promote lifts a read replica into a writable primary and returns the
// node's promotion count. The sequence is load-bearing: first
// Config.OnPromote quiesces anti-entropy (no checkpoint install may
// land after this returns), then the DB re-enables sweeping (and the
// background checkpointer if Config.PromoteBackground), and only then
// is ReadOnly lifted — so no accepted write can ever be clobbered by a
// stale install. The sweeper, already polling, begins sweeping on its
// next tick. Promotion state lives in memory and on the wire only;
// nothing about the role change is persisted.
func (s *Server) Promote() (uint64, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		return s.promotions.Load(), ErrNotReplica
	}
	if s.cfg.OnPromote != nil {
		s.cfg.OnPromote()
	}
	s.db.Promote(s.cfg.PromoteBackground)
	s.readOnly.Store(false)
	return s.promotions.Add(1), nil
}

// Demote returns a writable node to read-replica duty (the rejoin
// path: an old primary that crashed and recovered demotes itself
// before syncing off the new primary). Writes in the coalescer queue
// at the flip still apply — demotion is a role change, not a barrier;
// callers quiesce their own clients first.
func (s *Server) Demote() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.readOnly.Load() {
		return errors.New("server: node is already read-only")
	}
	s.db.Demote()
	s.readOnly.Store(true)
	return nil
}

// ListenAndServe listens on addr ("host:port") and serves until
// Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close, then returns
// ErrServerClosed. Multiple Serve calls on different listeners may run
// concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	s.startBatcher()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			return err
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.st.connsRejected.Add(1)
			s.refuse(nc, proto.ErrCodeBusy, "connection limit reached")
			continue
		}
		if !s.admit(nc) {
			<-s.sem
			continue
		}
		go func() {
			defer func() { <-s.sem }()
			s.handle(nc)
		}()
	}
}

// admit reserves a handler slot in the connection WaitGroup, or refuses
// the connection if the server is draining. The check and the Add
// happen under mu — the same lock stop() holds while setting closing —
// so an Add can never race a Shutdown that already started Wait
// (sync.WaitGroup forbids Add concurrent with a Wait at zero).
func (s *Server) admit(nc net.Conn) bool {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		s.refuse(nc, proto.ErrCodeShutdown, "server is shutting down")
		return false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	return true
}

// ServeConn serves a single pre-established connection (net.Pipe in
// tests, a socketpair, an accepted TLS conn, ...) to completion. It
// counts against MaxConns only in the sense of sharing the batcher and
// stats; the semaphore governs Serve's accepts.
func (s *Server) ServeConn(nc net.Conn) {
	if !s.admit(nc) {
		return
	}
	s.startBatcher()
	go s.handle(nc)
}

// refuse sends one error frame (best effort, bounded) and closes.
func (s *Server) refuse(nc net.Conn, code byte, msg string) {
	go func() {
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		proto.WriteFrame(nc, proto.Frame{
			Ver: proto.Version, Op: proto.OpError, Payload: proto.AppendError(nil, code, msg),
		})
		nc.Close()
	}()
}

// Shutdown gracefully stops the server: it closes the listeners, wakes
// idle readers, lets in-flight requests finish and their replies flush,
// stops the write coalescer, and commits a final checkpoint. If ctx
// expires first, remaining connections are severed (their unapplied
// requests are dropped; the checkpoint still runs). Shutdown returns
// the checkpoint's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop(false)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.severConns()
		<-done
	}
	s.stopSweeper()
	s.bat.close()
	return s.db.Checkpoint()
}

// Close force-stops the server: listeners closed, connections severed,
// no final checkpoint — the on-disk state stays at the last commit,
// exactly as if the process had been killed. It never blocks on peers.
func (s *Server) Close() {
	s.stop(true)
	s.wg.Wait()
	s.stopSweeper()
	s.bat.close()
}

// stop closes listeners and either wakes (graceful) or severs (force)
// the live connections. Idempotent via stopOnce for the listener part;
// conn poking is safe to repeat.
func (s *Server) stop(force bool) {
	// closing is set under mu so it cannot interleave with admit():
	// after this critical section, no new handler can join the
	// WaitGroup that Shutdown/Close is about to Wait on.
	s.mu.Lock()
	s.closing.Store(true)
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	// Ensure the coalescer goroutine exists: bat.close() waits for it
	// to exit, even if the server never served a connection.
	s.startBatcher()
	if force {
		s.severConns()
	} else {
		s.mu.Lock()
		for c := range s.conns {
			// Expire the blocked read; the reader drains its buffered
			// frames and exits cleanly, flushing pending replies.
			c.nc.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
	}
}

func (s *Server) severConns() {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

// maxReplyQueue bounds the per-connection outbound queue in frames. A
// healthy peer's queue is bounded by its pipeline depth; a peer that
// pipelines past this without reading replies is disconnected rather
// than allowed to grow server memory.
const maxReplyQueue = 1 << 14

// conn is one served connection.
type conn struct {
	srv *Server
	nc  net.Conn

	// Outbound replies, pre-encoded. reply never blocks — it
	// appends the encoded frame to out under qmu and signals qsig — so
	// the server-wide write coalescer can never be stalled by one slow
	// connection (it just disconnects a peer whose queue passes
	// maxReplyQueue frames). The writer swaps out for its spare buffer
	// and writes the whole burst with one syscall; the two buffers
	// alternate, so a steady pipeline allocates nothing. qdone marks
	// end-of-stream: the reader finished (flush what remains) or the
	// conn died (discard).
	qmu   sync.Mutex
	out   []byte // encoded frames awaiting the writer
	nq    int    // frames currently in out
	qdone bool
	qsig  chan struct{} // capacity 1: wake the writer

	// done closes when the connection is dead.
	done      chan struct{}
	closeOnce sync.Once
	// pending counts writes handed to the coalescer and not yet
	// replied. Only the reader goroutine Adds, so Wait in the reader is
	// race-free; reads and barriers Wait to preserve program order.
	pending sync.WaitGroup

	// Reader-goroutine scratch, reused across requests. Reply payloads
	// are built in pscratch and copied into out by reply before the
	// call returns, so reuse is safe; rangeBuf holds RANGE windows the
	// same way, and arg the current request's decoded operands. Only the
	// reader goroutine touches them.
	pscratch []byte
	rangeBuf []proto.Item
	arg      args

	// The trace identity awaiting the next flush, set by whichever
	// goroutine keeps a span tree (reader or batcher) and consumed by
	// the writer after its Write returns, all under qmu. A flush
	// carries many replies; attribution goes to the last kept request
	// — approximate by design, like the flush phase histogram itself.
	flushTID uint64
	flushSID uint64
}

func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.nc.Close()
		c.markDone()
	})
}

// markDone ends the outbound stream and wakes the writer.
func (c *conn) markDone() {
	c.qmu.Lock()
	c.qdone = true
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
}

// noteFlushTrace arms the writer's flush-span attribution for the
// next flush on this connection, for a request whose keep decision
// came after its reply was queued (slow requests); last writer wins.
func (c *conn) noteFlushTrace(tid, sid uint64) {
	c.qmu.Lock()
	c.flushTID, c.flushSID = tid, sid
	c.qmu.Unlock()
}

// handle runs one connection to completion: a writer goroutine plus the
// read-dispatch loop on this goroutine. Must be preceded by wg.Add(1).
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:  s,
		nc:   nc,
		qsig: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	if s.closing.Load() {
		// Shutdown may have poked the registered conns just before this
		// one registered; make sure it cannot sit in a blocked read.
		nc.SetReadDeadline(time.Now())
	}
	s.st.connsAccepted.Add(1)
	s.st.connsActive.Add(1)

	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		c.writeLoop()
	}()

	c.readLoop()

	// The reader is done submitting. Wait for the coalescer to answer
	// every in-flight write, end the reply stream so the writer flushes
	// and exits, then tear the connection down.
	c.pending.Wait()
	c.markDone()
	writerDone.Wait()
	c.close()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.st.connsActive.Add(-1)
}

// writeLoop serializes replies: swap the whole pending byte buffer for
// a spare, write it with one syscall, repeat — so a burst of pipelined
// replies costs one Write and zero per-frame work (frames were encoded
// by reply as they were queued). The two buffers alternate forever,
// so a steady pipeline stops allocating once both have grown to the
// burst size. After a write error the connection is closed and later
// replies are discarded; senders never block either way.
func (c *conn) writeLoop() {
	var spare []byte
	failed := false
	wt := c.srv.cfg.WriteTimeout
	for {
		c.qmu.Lock()
		batch := c.out
		c.out = spare[:0]
		c.nq = 0
		done := c.qdone
		c.qmu.Unlock()
		spare = batch

		if len(batch) > 0 && !failed {
			if wt > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(wt))
			}
			c.srv.st.bytesOut.Add(uint64(len(batch)))
			t0 := time.Now()
			if _, err := c.nc.Write(batch); err != nil {
				failed = true
				c.close()
			}
			c.srv.sm.phaseFlush.ObserveSince(t0)
			c.srv.sm.flushBytes.Observe(int64(len(batch)))
			if tr := c.srv.tr; tr != nil {
				c.qmu.Lock()
				tid, sid := c.flushTID, c.flushSID
				c.flushTID, c.flushSID = 0, 0
				c.qmu.Unlock()
				if tid != 0 {
					tr.Record(trace.Span{
						Trace: tid, ID: tr.NewID(), Parent: sid,
						Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
						Kind: trace.KindFlush, Shard: -1, Out: int32(len(batch)),
					})
				}
			}
		}
		if done {
			c.qmu.Lock()
			empty := len(c.out) == 0
			c.qmu.Unlock()
			if empty {
				return
			}
			continue // drain what raced in with markDone
		}
		if len(batch) == 0 {
			<-c.qsig // sleep until there is work or end-of-stream
		}
	}
}

// readLoop decodes and serves frames until the peer goes away, the
// stream turns hostile, or shutdown expires the read deadline.
func (c *conn) readLoop() {
	s := c.srv
	// FrameReader reuses one payload buffer across frames; serve honors
	// its aliasing contract by fully consuming (decoding or copying)
	// each payload before returning.
	fr := proto.NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10), s.cfg.MaxPayload)
	for {
		if s.closing.Load() {
			// Draining: stop accepting new frames. Without this check a
			// busy pipeliner would overwrite Shutdown's deadline poke
			// below and keep the server "draining" until the force
			// timeout. In-flight writes still get their replies flushed
			// by the teardown in handle.
			return
		}
		if s.cfg.ReadTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		f, err := fr.Next()
		if err != nil {
			// EOF and deadline expiry are normal ends. Framing violations
			// and foreign versions get a parting error frame (a version
			// refusal names the request: Next returns its header). Either
			// way the stream cannot be resynchronized, so the connection
			// ends.
			code := byte(proto.ErrCodeBadFrame)
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
				isTimeout(err), errors.Is(err, net.ErrClosed):
				return
			case errors.Is(err, proto.ErrVersion):
				code = proto.ErrCodeVersion
			case errors.Is(err, proto.ErrFrameTooLarge):
				code = proto.ErrCodeTooLarge
			}
			c.reply(&request{id: f.ID}, nil, code, err.Error())
			return
		}
		t0 := time.Now() // receipt: phase timing starts here
		s.st.bytesIn.Add(uint64(f.WireSize()))
		s.st.requests.Add(1)
		c.serve(f, t0)
		if cap(c.pscratch) > 64<<10 {
			// A jumbo batch or range reply grew the scratch; don't pin
			// it for the connection's lifetime.
			c.pscratch = nil
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// request is one client request's identity and timing, passed
// explicitly from receipt to finish: inline ops keep it on the reader
// goroutine's stack, and coalesced writes carry it through the batcher
// inside their writeReq.
type request struct {
	c   *conn // nil: a server-internal op (expiry sweep); no reply owed
	op  byte
	id  uint64
	tc  proto.TraceCtx // the frame's trace context, echoed on the reply
	in  int            // request payload bytes
	key int64          // routes the shard index of keyed ops
	// queued: handed to the batcher, so finish releases the
	// connection's pending count. batch is the size of the coalesced
	// ApplyBatch the request rode (0: not coalesced).
	queued bool
	batch  int
	// Phase boundaries: receipt, decode done, wait done (in-flight-write
	// barrier for inline ops, batch formation for coalesced ones), apply
	// done. The finish routine stamps the end of encode.
	t0, td, tw, ta time.Time
	// The span identity of a kept request (see keep); zero sid: not
	// kept, or not yet known to be.
	tid, sid uint64
}

// reply encodes r's answer straight into the outbound buffer — payload
// under op|FlagReply, or, when code is nonzero, an error frame carrying
// msg — and returns the payload size. It never blocks: the payload is
// copied before reply returns, so callers may reuse their scratch at
// once. Replies after end-of-stream are dropped; a peer whose queue is
// full (it stopped reading) is disconnected. It runs on both the reader
// goroutine (inline ops) and the coalescer goroutine (batched writes).
// The reply echoes the request's trace context, and a request already
// known to be kept (nonzero sid) arms the writer's flush-span
// attribution in the same critical section as the enqueue, so the
// flush that carries the reply finds it.
func (c *conn) reply(r *request, payload []byte, code byte, msg string) int {
	op := r.op | proto.FlagReply
	if code != 0 {
		// Errors are cold; building the payload fresh keeps the caller's
		// scratch free.
		c.srv.st.errors.Add(1)
		op, payload = proto.OpError, proto.AppendError(nil, code, msg)
	}
	c.qmu.Lock()
	if c.qdone {
		c.qmu.Unlock()
		return len(payload)
	}
	if c.nq >= maxReplyQueue {
		c.qmu.Unlock()
		c.close()
		return len(payload)
	}
	c.out = proto.AppendFrame(c.out, proto.Frame{Ver: proto.Version, Op: op, ID: r.id, Payload: payload, Trace: r.tc})
	c.nq++
	if r.sid != 0 {
		c.flushTID, c.flushSID = r.tid, r.sid
	}
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
	return len(payload)
}

// fail answers an inline request with an error and finishes it. Phases
// the request never reached are stamped empty at the failure point.
func (c *conn) fail(r *request, code byte, msg string) {
	now := time.Now()
	if r.td.IsZero() {
		r.td = now
	}
	if r.tw.IsZero() {
		r.tw = r.td
	}
	if r.ta.IsZero() {
		r.ta = r.tw
	}
	c.srv.finish(r, nil, code, msg)
}

// serve runs one request through its opcode's table entry. This is the
// one place that does what every opcode repeats: the read-only refusal,
// decode-error replies, counters, phase timestamps, the program-order
// wait for this connection's in-flight writes, and the reply. t0 is the
// frame's receipt time. Malformed payloads get an error reply and the
// stream continues, since framing is still intact.
func (c *conn) serve(f proto.Frame, t0 time.Time) {
	s := c.srv
	e := &opTable[f.Op]
	r := request{c: c, op: f.Op, id: f.ID, tc: f.Trace, in: len(f.Payload), t0: t0}
	if e.class == classUnknown {
		c.reply(&r, nil, proto.ErrCodeUnknownOp, proto.OpName(f.Op))
		return
	}
	if e.mutating != nil && s.readOnly.Load() && e.mutating(f.Payload) {
		// Refused before decoding: a malformed write gets the error that
		// tells the client where writes go.
		s.st.readOnlyRejected.Add(1)
		c.fail(&r, proto.ErrCodeReadOnly,
			fmt.Sprintf("%s: this node is a read replica; send writes to the primary", proto.OpName(f.Op)))
		return
	}
	a := &c.arg
	*a = args{}
	if err := e.decode(a, f.Payload); err != nil {
		c.fail(&r, proto.ErrCodeBadFrame, err.Error())
		return
	}
	r.key = a.key
	r.td = time.Now()
	if e.class == classWrite {
		// The batcher owns the rest: coalesce-wait, apply, reply, finish.
		s.st.writes.Add(1)
		s.sm.phaseDecode.Observe(int64(r.td.Sub(t0)))
		c.pending.Add(1)
		r.queued = true
		s.bat.submit(writeReq{request: r, val: a.val, exp: a.exp, ns: a.ns})
		return
	}
	r.tw = r.td
	if e.class != classAdmin {
		c.pending.Wait() // program order: this conn's writes land first
		r.tw = time.Now()
	}
	if e.class == classBarrier {
		s.keep(&r)
		a.tid, a.sid = r.tid, r.sid
	}
	r.ta = r.tw
	if e.exec != nil {
		if err := e.exec(c, a); err != nil {
			c.fail(&r, codeOf(err), err.Error())
			return
		}
		r.ta = time.Now()
	}
	c.pscratch = e.encode(c, a, c.pscratch[:0])
	if len(c.pscratch) > proto.MaxPayload {
		c.fail(&r, proto.ErrCodeTooLarge,
			fmt.Sprintf("%d-byte %s reply exceeds the frame payload cap", len(c.pscratch), proto.OpName(f.Op)))
		return
	}
	te := s.finish(&r, c.pscratch, 0, "")
	s.sm.phaseDecode.Observe(int64(r.td.Sub(t0)))
	s.sm.phaseWait.Observe(int64(r.tw.Sub(r.td)))
	s.sm.phaseApply.Observe(int64(r.ta.Sub(r.tw)))
	s.sm.phaseEncode.Observe(int64(te.Sub(r.ta)))
}

// shardImage returns the committed image for (ns, idx, hash) through
// the one-entry sync cache; ns "" addresses the default keyspace.
func (s *Server) shardImage(ns string, idx int, hash [32]byte) ([]byte, error) {
	s.syncMu.Lock()
	if s.syncImage != nil && s.syncNS == ns && s.syncIdx == idx && s.syncHash == hash {
		img := s.syncImage
		s.syncMu.Unlock()
		return img, nil
	}
	s.syncMu.Unlock()
	var img []byte
	var err error
	if ns == "" {
		img, err = s.db.ShardImage(idx, hash)
	} else {
		img, err = s.db.NSShardImage(ns, idx, hash)
	}
	if err != nil {
		return nil, err
	}
	s.syncMu.Lock()
	s.syncNS, s.syncIdx, s.syncHash, s.syncImage = ns, idx, hash, img
	s.syncMu.Unlock()
	return img, nil
}
