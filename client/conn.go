package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/trace"
)

// Item is a key plus its value, the element type of batch and range
// operations. Values are fixed 8-byte integers — the data model of the
// underlying history-independent structures.
type Item = proto.Item

// ErrConnClosed is returned by operations on a closed connection (or
// one whose peer went away). The detailed cause is wrapped.
var ErrConnClosed = errors.New("client: connection closed")

// ErrReadOnly is wrapped into the error a mutating operation gets back
// from a read replica (server code ErrCodeReadOnly). Check it with
// errors.Is and redirect the write to the primary; the connection
// stays usable for reads. The underlying *proto.RemoteError is also in
// the chain for errors.As.
var ErrReadOnly = errors.New("client: server is a read-only replica")

// ErrNotReplica is wrapped into the error Promote gets back from a
// node that is already writable (server code ErrCodeNotReplica) —
// a double promotion, or a PROMOTE aimed at the primary.
var ErrNotReplica = errors.New("client: server is already writable")

// Health re-exports the OpHealth reply: the node's role, promotion
// count, checkpoint epoch, and committed-manifest hash.
type Health = proto.Health

// ShardHash re-exports the per-shard checkpoint descriptor returned by
// SyncShardHashes: the committed canonical image's size and SHA-256.
type ShardHash = proto.ShardHash

// Conn is one pipelined protocol connection. It is safe for concurrent
// use: every method may be called from any goroutine, and concurrent
// calls share the connection as in-flight pipelined requests.
type Conn struct {
	nc     net.Conn
	nextID atomic.Uint64

	wch chan []byte // encoded request frames to the writer

	mu      sync.Mutex
	pending map[uint64]chan proto.Frame
	err     error // set once broken; guards future calls
	closed  bool
	dead    atomic.Bool // mirrors closed for lock-free health checks

	done    chan struct{} // closed when the reader exits
	timeout time.Duration

	// lastEpoch is the highest checkpoint epoch seen in any stamped
	// read reply on this connection — the client side of the
	// bounded-staleness contract (see LastEpoch).
	lastEpoch atomic.Uint64

	// m is never nil: Conns outside an observed pool share
	// defaultClientMetrics (live, unregistered).
	m *clientMetrics

	// tr is the span store this connection records client spans into
	// (nil pointer: tracing off). When set, every request carries a v4
	// trace-context extension — a fresh trace id, this call's span id
	// as the parent the server stitches under, and the head-sampling
	// decision — and sampled or failed calls record a client span. An
	// atomic pointer because SetTrace may race in-flight calls.
	tr atomic.Pointer[trace.Store]
}

// Dial connects to a hidbd server at addr ("host:port").
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// DialTimeout is Dial with a connect timeout, and sets the same value
// as the per-request reply timeout (0: none).
func DialTimeout(addr string, d time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	c.timeout = d
	return c, nil
}

// NewConnTimeout is NewConn with a per-request reply timeout (0:
// none): a call whose reply does not arrive within d fails instead of
// waiting forever, so a peer that accepts the connection but never
// answers cannot wedge the caller.
func NewConnTimeout(nc net.Conn, d time.Duration) *Conn {
	c := NewConn(nc)
	c.timeout = d
	return c
}

// NewConn wraps an established net.Conn (a TCP conn, one end of a
// net.Pipe, ...) in a protocol connection and starts its reader and
// writer goroutines.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:      nc,
		wch:     make(chan []byte, 256),
		pending: map[uint64]chan proto.Frame{},
		done:    make(chan struct{}),
		m:       defaultClientMetrics,
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Close tears the connection down and returns the socket's close
// error. In-flight requests fail with ErrConnClosed. Close is
// idempotent: only the call that actually tears the connection down
// can return an error; every later call (including one racing the
// reader or writer noticing a dead peer) returns nil.
func (c *Conn) Close() error {
	return c.fail(ErrConnClosed)
}

// broken reports whether the connection has been torn down (by Close
// or by a transport failure). A false result is advisory — the peer
// may die between the check and the next call — but a true result is
// permanent: a Conn never comes back.
func (c *Conn) broken() bool { return c.dead.Load() }

// fail marks the connection broken, closes the socket, and fails every
// in-flight request. First cause wins; the socket close error is
// returned by the invocation that actually performed the teardown.
func (c *Conn) fail(cause error) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.dead.Store(true)
	c.err = cause
	waiters := c.pending
	c.pending = map[uint64]chan proto.Frame{}
	c.mu.Unlock()
	cerr := c.nc.Close()
	for _, ch := range waiters {
		close(ch) // receivers translate a closed channel into c.err
	}
	return cerr
}

// writeLoop serializes request frames, flushing when the queue goes
// idle so concurrent callers share syscalls.
func (c *Conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	for {
		var buf []byte
		select {
		case buf = <-c.wch:
		case <-c.done:
			return // conn dead; senders unblock on done too
		}
		_, err := bw.Write(buf)
	more:
		for err == nil {
			select {
			case buf2 := <-c.wch:
				_, err = bw.Write(buf2)
			default:
				break more
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			c.fail(fmt.Errorf("%w: write: %w", ErrConnClosed, err))
		}
	}
}

// readLoop routes replies to their waiting callers by request id.
func (c *Conn) readLoop() {
	defer close(c.done)
	fr := proto.NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10), proto.MaxPayload)
	for {
		f, err := fr.Next()
		if err != nil {
			c.fail(fmt.Errorf("%w: read: %w", ErrConnClosed, err))
			return
		}
		// The reader reuses its payload buffer and the caller keeps the
		// reply past the next frame, so the caller gets a copy.
		f.Payload = bytes.Clone(f.Payload)
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ok {
			ch <- f // buffered; never blocks
			continue
		}
		// No waiting caller. An error frame with id 0 addresses the
		// connection itself (the server rejected us: busy, shutdown, a
		// framing violation we made — see docs/PROTOCOL.md) — surface
		// it as the connection's terminal error. Anything else,
		// including a per-request error frame whose caller already
		// timed out and deregistered, is a reply to an abandoned
		// request; drop it and keep the stream alive.
		if f.Op == proto.OpError && f.ID == 0 {
			if code, msg, derr := proto.DecodeError(f.Payload); derr == nil {
				c.fail(&proto.RemoteError{Code: code, Msg: msg})
				return
			}
		}
	}
}

// call sends one request and waits for its reply, enforcing the
// version and error-frame conventions.
func (c *Conn) call(op byte, payload []byte) (proto.Frame, error) {
	t0 := time.Now()
	c.m.inflight.Add(1)
	f, err := c.doCall(op, payload)
	c.m.inflight.Add(-1)
	c.m.reqSecs.ObserveSince(t0)
	if err != nil {
		c.m.requestErrors.Inc()
	}
	return f, err
}

// errLocalFailure is the Err byte a client span carries when the call
// failed before any server error code existed — a broken connection, a
// timeout, a malformed reply. Deliberately outside the wire error-code
// vocabulary.
const errLocalFailure = 0xff

// SetTrace wires a span store into the connection: requests start
// carrying the v4 trace-context extension, and calls that are
// head-sampled (the store's rate) or fail record a client span. Safe
// to call concurrently with in-flight calls; a nil store is ignored.
func (c *Conn) SetTrace(st *trace.Store) {
	if st != nil {
		c.tr.Store(st)
	}
}

func (c *Conn) doCall(op byte, payload []byte) (proto.Frame, error) {
	tr := c.tr.Load()
	if tr == nil {
		return c.doCallCtx(op, payload, proto.TraceCtx{})
	}
	// The client span's id travels as the context's parent-span field,
	// so every server-side span the request spawns stitches under it.
	sid := tr.NewID()
	tc := proto.TraceCtx{ID: tr.NewID(), Span: sid, Sampled: tr.Sample()}
	t0 := time.Now()
	f, err := c.doCallCtx(op, payload, tc)
	if tc.Sampled || err != nil {
		ec := byte(0)
		if err != nil {
			ec = errLocalFailure
			var re *proto.RemoteError
			if errors.As(err, &re) {
				ec = re.Code
			}
		}
		tr.Record(trace.Span{
			Trace: tc.ID, ID: sid,
			Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
			Kind: trace.KindClient, Op: op, Err: ec, Shard: -1,
			In: int32(len(payload)), Out: int32(len(f.Payload)),
		})
	}
	return f, err
}

func (c *Conn) doCallCtx(op byte, payload []byte, tc proto.TraceCtx) (proto.Frame, error) {
	id := c.nextID.Add(1)
	ch := make(chan proto.Frame, 1)

	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return proto.Frame{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	buf := proto.AppendFrame(nil, proto.Frame{Ver: proto.Version, Op: op, ID: id, Payload: payload, Trace: tc})
	select {
	case c.wch <- buf:
	case <-c.done:
		return proto.Frame{}, c.lastErr()
	}

	var timeout <-chan time.Time
	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return proto.Frame{}, c.lastErr()
		}
		if f.Op == proto.OpError {
			code, msg, err := proto.DecodeError(f.Payload)
			if err != nil {
				return proto.Frame{}, fmt.Errorf("client: bad error frame: %w", err)
			}
			rerr := &proto.RemoteError{Code: code, Msg: msg}
			switch code {
			case proto.ErrCodeReadOnly:
				// Both sentinels stay in the chain: errors.Is(err,
				// ErrReadOnly) for routing, errors.As for the code.
				return proto.Frame{}, fmt.Errorf("%w: %w", ErrReadOnly, rerr)
			case proto.ErrCodeNotReplica:
				return proto.Frame{}, fmt.Errorf("%w: %w", ErrNotReplica, rerr)
			case proto.ErrCodeQuota:
				return proto.Frame{}, fmt.Errorf("%w: %w", ErrQuota, rerr)
			}
			return proto.Frame{}, rerr
		}
		if f.Op != op|proto.FlagReply {
			return proto.Frame{}, fmt.Errorf("client: reply opcode %s to request %s",
				proto.OpName(f.Op), proto.OpName(op))
		}
		return f, nil
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return proto.Frame{}, fmt.Errorf("client: %s timed out after %v", proto.OpName(op), c.timeout)
	}
}

func (c *Conn) lastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrConnClosed
}

// noteEpoch records a stamped reply's checkpoint epoch, keeping the
// connection-local high-water mark monotonic.
func (c *Conn) noteEpoch(epoch uint64) {
	for {
		old := c.lastEpoch.Load()
		if epoch <= old || c.lastEpoch.CompareAndSwap(old, epoch) {
			return
		}
	}
}

// LastEpoch returns the highest checkpoint epoch stamped on any read
// reply this connection has seen. The epoch is NODE-LOCAL (checkpoints
// committed or installed since that process started), so it is only
// comparable between replies from the same node incarnation — which is
// exactly what read-your-writes needs: write to the primary,
// CHECKPOINT, then read from a replica until its stamp advances past
// the epoch it reported before the checkpoint.
func (c *Conn) LastEpoch() uint64 { return c.lastEpoch.Load() }

// Get returns the value stored for key and whether it exists.
func (c *Conn) Get(key int64) (val int64, ok bool, err error) {
	val, _, ok, err = c.GetStamped(key)
	return val, ok, err
}

// GetStamped is Get plus the serving node's checkpoint epoch stamp —
// the bounded-staleness contract made visible. On a replica the stamp
// identifies exactly which installed checkpoint served the read.
func (c *Conn) GetStamped(key int64) (val int64, epoch uint64, ok bool, err error) {
	f, err := c.call(proto.OpGet, proto.AppendKey(nil, key))
	if err != nil {
		return 0, 0, false, err
	}
	val, epoch, ok, err = proto.DecodeFound(f.Payload)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return val, epoch, ok, err
}

// Put upserts the value for key and reports whether the key was newly
// inserted.
func (c *Conn) Put(key, val int64) (inserted bool, err error) {
	f, err := c.call(proto.OpPut, proto.AppendKeyVal(nil, key, val))
	if err != nil {
		return false, err
	}
	return proto.DecodeBool(f.Payload)
}

// PutTTL upserts the value for key with an ABSOLUTE expiry epoch (unix
// seconds; 0: never expires) and reports whether the key was newly
// inserted — counting a key whose previous entry had already expired as
// new. The server echoes the applied expiry back. A relative TTL is the
// caller's arithmetic (time.Now().Unix() + seconds): the wire
// deliberately carries only absolute state, never request timing.
func (c *Conn) PutTTL(key, val, exp int64) (inserted bool, err error) {
	f, err := c.call(proto.OpPutTTL, proto.AppendKeyValExp(nil, key, val, exp))
	if err != nil {
		return false, err
	}
	inserted, echoed, err := proto.DecodeTTLAck(f.Payload)
	if err != nil {
		return false, err
	}
	if echoed != exp {
		return inserted, fmt.Errorf("client: put-ttl echoed expiry %d, sent %d", echoed, exp)
	}
	return inserted, nil
}

// GetTTL returns the value and recorded absolute expiry (0: none) for
// key, and whether the key is live. An entry whose expiry has passed
// reads as absent from the moment the epoch passes it.
func (c *Conn) GetTTL(key int64) (val, exp int64, ok bool, err error) {
	f, err := c.call(proto.OpGetTTL, proto.AppendKey(nil, key))
	if err != nil {
		return 0, 0, false, err
	}
	val, exp, epoch, ok, err := proto.DecodeFoundTTL(f.Payload)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return val, exp, ok, err
}

// Delete removes key and reports whether it was present.
func (c *Conn) Delete(key int64) (deleted bool, err error) {
	f, err := c.call(proto.OpDel, proto.AppendKey(nil, key))
	if err != nil {
		return false, err
	}
	return proto.DecodeBool(f.Payload)
}

// PutBatch upserts every item in one request and returns the number of
// keys newly inserted. Duplicate keys apply in batch order.
func (c *Conn) PutBatch(items []Item) (inserted int, err error) {
	f, err := c.call(proto.OpBatch, proto.AppendBatchPut(nil, items))
	if err != nil {
		return 0, err
	}
	n, err := proto.DecodeU32(f.Payload)
	return int(n), err
}

// GetBatch looks up every key in one request; values and presence
// flags align with keys. len(keys) must not exceed proto.MaxBatchGet
// (the reply-size cap, ~116k keys); split larger lookups.
func (c *Conn) GetBatch(keys []int64) (vals []int64, ok []bool, err error) {
	if len(keys) > proto.MaxBatchGet {
		return nil, nil, fmt.Errorf("client: batch-get of %d keys exceeds the %d-key reply cap",
			len(keys), proto.MaxBatchGet)
	}
	f, err := c.call(proto.OpBatch, proto.AppendBatchKeys(nil, proto.BatchGet, keys))
	if err != nil {
		return nil, nil, err
	}
	vals, ok, epoch, err := proto.DecodeBatchGetReply(f.Payload)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return vals, ok, err
}

// DeleteBatch removes every key in one request and returns the number
// that were present.
func (c *Conn) DeleteBatch(keys []int64) (deleted int, err error) {
	f, err := c.call(proto.OpBatch, proto.AppendBatchKeys(nil, proto.BatchDel, keys))
	if err != nil {
		return 0, err
	}
	n, err := proto.DecodeU32(f.Payload)
	return int(n), err
}

// Range returns up to max items with lo <= key <= hi in ascending key
// order (max 0: the server's cap). more reports that the scan was
// truncated; resume with lo = last key + 1.
func (c *Conn) Range(lo, hi int64, max int) (items []Item, more bool, err error) {
	f, err := c.call(proto.OpRange, proto.AppendRangeReq(nil, lo, hi, uint32(max)))
	if err != nil {
		return nil, false, err
	}
	items, epoch, more, err := proto.DecodeRangeReply(f.Payload)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return items, more, err
}

// Len returns the number of keys in the database.
func (c *Conn) Len() (int, error) {
	f, err := c.call(proto.OpLen, nil)
	if err != nil {
		return 0, err
	}
	n, epoch, err := proto.DecodeLenReply(f.Payload)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return int(n), err
}

// Checkpoint commits a checkpoint and returns the server's total
// committed-checkpoint count. It is a durability barrier for this
// connection: every previously acknowledged operation is on disk when
// it returns.
func (c *Conn) Checkpoint() (uint64, error) {
	f, err := c.call(proto.OpCheckpoint, nil)
	if err != nil {
		return 0, err
	}
	return proto.DecodeU64(f.Payload)
}

// SyncShardHashes fetches the server's last committed checkpoint
// descriptor: its routing seed and, per shard, the canonical image's
// size and SHA-256. Two nodes with equal contents return equal hashes
// for every shard, so this is the comparison an anti-entropy round
// starts with.
func (c *Conn) SyncShardHashes() (hseed uint64, entries []ShardHash, err error) {
	f, err := c.call(proto.OpShardHash, nil)
	if err != nil {
		return 0, nil, err
	}
	return proto.DecodeShardHashes(f.Payload)
}

// SyncShardChunk fetches up to maxLen bytes (0: the server's default)
// of shard i's committed canonical image, identified by the hash a
// SyncShardHashes call advertised, starting at offset. more reports
// that the image continues past the returned bytes. A hash superseded
// by a newer checkpoint fails with a RemoteError carrying
// proto.ErrCodeStale — re-fetch the hashes and retry. Callers
// assembling a whole image must verify its SHA-256 against the
// advertised hash.
func (c *Conn) SyncShardChunk(i int, hash [32]byte, offset uint64, maxLen int) (data []byte, more bool, err error) {
	f, err := c.call(proto.OpSync, proto.AppendSyncReq(nil, uint32(i), hash, offset, uint32(maxLen)))
	if err != nil {
		return nil, false, err
	}
	return proto.DecodeSyncChunk(f.Payload)
}

// Health fetches the server's role and checkpoint position: whether it
// is read-only, how many times the process has been promoted, its
// checkpoint epoch, and the SHA-256 of its committed manifest. The
// server answers without queueing behind writes, so Health stays
// responsive as a liveness probe even when the write path is backed
// up. Two nodes serving identical checkpoints report identical hashes.
func (c *Conn) Health() (Health, error) {
	f, err := c.call(proto.OpHealth, nil)
	if err != nil {
		return Health{}, err
	}
	h, err := proto.DecodeHealth(f.Payload)
	if err == nil {
		c.noteEpoch(h.Epoch)
	}
	return h, err
}

// Promote asks a read replica to become the writable primary and
// returns the node's promotion count. A node that is already writable
// refuses with an error satisfying errors.Is(err, ErrNotReplica).
// Promotion is in-memory and wire-visible only; the caller is
// responsible for making sure the old primary is actually gone.
func (c *Conn) Promote() (uint64, error) {
	f, err := c.call(proto.OpPromote, nil)
	if err != nil {
		return 0, err
	}
	return proto.DecodeU64(f.Payload)
}

// Ping round-trips payload (may be nil) through the server.
func (c *Conn) Ping(payload []byte) error {
	f, err := c.call(proto.OpPing, payload)
	if err != nil {
		return err
	}
	if string(f.Payload) != string(payload) {
		return fmt.Errorf("client: ping echoed %d bytes, sent %d", len(f.Payload), len(payload))
	}
	return nil
}
