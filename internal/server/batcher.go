package server

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/trace"
)

// writeReq is one connection's coalesced write (PUT, PUTTTL, DEL,
// NSPUT, NSDEL, or DROPNS — the opcode is in the embedded request),
// carrying everything needed to route the reply back; or a
// server-internal expire op from the sweeper (c nil: no reply). ns
// non-empty addresses a tenant cell.
type writeReq struct {
	request
	val    int64
	exp    int64  // PUTTTL/NSPUT: absolute expiry; expire op: epoch bound
	ns     string // tenant namespace ("": default keyspace)
	expire bool   // sweeper-issued conditional delete; c is nil
}

// batcher is the server-wide write coalescer: a single goroutine that
// drains pending writes from every connection into one mixed
// shard.Op batch and applies it with DB.ApplyBatch, taking each shard's
// write lock once per drain instead of once per operation. Submission
// order per connection is preserved (the channel is FIFO and the batch
// applies same-shard ops in order), so the reply each connection sees
// is exactly what the equivalent point op would have returned.
type batcher struct {
	srv       *Server
	ch        chan writeReq
	done      chan struct{}
	closeOnce sync.Once

	// Coalescer-goroutine scratch, reused across drains.
	ops      []shard.Op
	changed  []bool
	pscratch []byte
}

func newBatcher(s *Server) *batcher {
	return &batcher{
		srv:  s,
		ch:   make(chan writeReq, s.cfg.WriteQueue),
		done: make(chan struct{}),
	}
}

// submit hands a write to the coalescer. It blocks when the queue is
// full — backpressure, not unbounded buffering. The caller must have
// incremented its connection's pending-write count first.
func (b *batcher) submit(r writeReq) { b.ch <- r }

// close stops the coalescer after the queue drains. All submitters must
// have exited first, and run must have been started.
func (b *batcher) close() {
	b.closeOnce.Do(func() { close(b.ch) })
	<-b.done
}

// extendThreshold is the adaptive batch window: a greedy drain that
// collected at least this many writes is evidence of concurrent
// pipelining, so the coalescer yields the processor once and drains
// again before taking the shard locks — submitters that were mid-send
// land in this batch instead of forcing another full lock-take. A
// smaller drain skips the yield: latency stays tight when load is
// light.
const extendThreshold = 8

// run is the coalescer loop: block for one write, then greedily drain
// whatever else is queued (up to MaxWriteBatch, with one adaptive
// window extension under load), then process the drain in submission
// order — contiguous default-keyspace runs as one ApplyBatch,
// namespaced ops as point ops against their tenant cells, DROPNS as a
// full barrier (drop + checkpoint before the reply). Per-connection
// order is preserved end to end: the channel is FIFO and segments apply
// in drain order, so the reply each connection sees is exactly what the
// equivalent point op would have returned.
func (b *batcher) run() {
	defer close(b.done)
	s := b.srv
	var reqs []writeReq
	for first := range b.ch {
		reqs = append(reqs[:0], first)
		reqs = b.drain(reqs)
		if n := len(reqs); n >= extendThreshold && n < s.cfg.MaxWriteBatch {
			runtime.Gosched()
			if reqs = b.drain(reqs); len(reqs) > n {
				s.st.wExtends.Add(1)
			}
		}

		// tw: end of coalesce-wait for everything in this drain. Per-req
		// wait is tw−r.t0 (receipt to batch formation); apply and encode
		// are per-segment costs shared by every member.
		tw := time.Now()
		for _, r := range reqs {
			if r.c != nil {
				s.sm.phaseWait.Observe(int64(tw.Sub(r.t0)))
			}
		}
		for lo := 0; lo < len(reqs); {
			if reqs[lo].ns == "" {
				hi := lo + 1
				for hi < len(reqs) && reqs[hi].ns == "" {
					hi++
				}
				b.applyDefault(reqs[lo:hi], tw)
				lo = hi
			} else {
				b.applyNS(&reqs[lo], tw)
				lo++
			}
		}
	}
}

// applyDefault applies one contiguous run of default-keyspace writes as
// a single ApplyBatch and fans the per-op outcomes back out as replies.
func (b *batcher) applyDefault(reqs []writeReq, tw time.Time) {
	s := b.srv
	ops := b.ops[:0]
	for _, r := range reqs {
		ops = append(ops, shard.Op{Key: r.key, Val: r.val, Exp: r.exp, Delete: r.op == proto.OpDel, Expire: r.expire})
	}
	b.ops = ops
	if cap(b.changed) < len(ops) {
		b.changed = make([]bool, len(ops))
	}
	changed := b.changed[:len(ops)]
	_, err := s.db.ApplyBatch(ops, changed)
	s.st.noteBatch(len(ops))
	ta := time.Now()
	s.sm.phaseApply.Observe(int64(ta.Sub(tw)))
	s.sm.batchOps.Observe(int64(len(ops)))

	for i := range reqs {
		r := &reqs[i]
		if r.c == nil {
			continue // server-internal op (expiry sweep): no reply owed
		}
		r.tw, r.ta, r.batch = tw, ta, len(reqs)
		switch {
		case err != nil:
			s.finish(&r.request, nil, proto.ErrCodeInternal, err.Error())
		case r.op == proto.OpPutTTL:
			b.pscratch = proto.AppendTTLAck(b.pscratch[:0], changed[i], r.exp)
			s.finish(&r.request, b.pscratch, 0, "")
		default:
			b.pscratch = proto.AppendBool(b.pscratch[:0], changed[i])
			s.finish(&r.request, b.pscratch, 0, "")
		}
	}
	s.sm.phaseEncode.Observe(int64(time.Since(ta)))
}

// applyNS applies one namespaced write as a point op — tenant cells
// have their own shard locks, so there is nothing to coalesce — and
// DROPNS as the erasure barrier the protocol promises: the cell is
// dropped AND a checkpoint committed (manifest without the tenant,
// files zero-wiped and unlinked) before the reply leaves, so a
// positive DROPNS reply means the erasure is already durable and
// forensically complete.
func (b *batcher) applyNS(r *writeReq, tw time.Time) {
	s := b.srv
	s.st.nsOps.Add(1)
	var (
		changed bool
		code    byte
		msg     string
	)
	switch r.op {
	case proto.OpDropNS:
		s.st.nsDrops.Add(1)
		// The erasure barrier commits a checkpoint: mint the span
		// identity now so the durable layer's checkpoint span parents
		// under this request.
		s.keep(&r.request)
		// Drop and checkpoint as one operation: a failed checkpoint
		// restores the cell before the error reply, so the client is
		// never told a tenant is gone while its data stays durable, and
		// a retried DROPNS finds the tenant (or its lingering manifest
		// entry) and completes the erasure.
		var err error
		if changed, err = s.db.DropNamespaceSyncTraced(r.ns, r.tid, r.sid); err != nil {
			code, msg = proto.ErrCodeInternal, err.Error()
		}
	case proto.OpNSDel:
		changed = s.db.NSDelete(r.ns, r.key)
	default:
		if q := s.cfg.NSQuota; q > 0 && !s.db.NSHas(r.ns, r.key) && s.db.NSLen(r.ns) >= q {
			s.st.nsQuotaRejected.Add(1)
			code, msg = proto.ErrCodeQuota, fmt.Sprintf("namespace is at its %d-key quota", q)
		} else {
			var err error
			if changed, err = s.db.NSPutTTL(r.ns, r.key, r.val, r.exp); err != nil {
				code, msg = proto.ErrCodeBadFrame, err.Error()
			}
		}
	}
	ta := time.Now()
	s.sm.phaseApply.Observe(int64(ta.Sub(tw)))
	r.tw, r.ta = tw, ta
	if r.sid != 0 {
		// The barrier span covers the drop-and-checkpoint apply window;
		// the checkpoint span recorded inside it is a sibling child of
		// the same server span, linked by the committed manifest hash.
		s.tr.Record(trace.Span{Trace: r.tid, ID: s.tr.NewID(), Parent: r.sid,
			Start: tw.UnixNano(), Dur: int64(ta.Sub(tw)), Kind: trace.KindEraseBarrier,
			Shard: -1, Err: code})
	}
	switch {
	case code != 0:
		s.finish(&r.request, nil, code, msg)
	case r.op == proto.OpNSPut:
		b.pscratch = proto.AppendTTLAck(b.pscratch[:0], changed, r.exp)
		s.finish(&r.request, b.pscratch, 0, "")
	default:
		b.pscratch = proto.AppendBool(b.pscratch[:0], changed)
		s.finish(&r.request, b.pscratch, 0, "")
	}
	s.sm.phaseEncode.Observe(int64(time.Since(ta)))
}

// drain greedily moves queued writes into reqs without blocking, up to
// MaxWriteBatch.
func (b *batcher) drain(reqs []writeReq) []writeReq {
	for len(reqs) < b.srv.cfg.MaxWriteBatch {
		select {
		case r, ok := <-b.ch:
			if !ok {
				return reqs
			}
			reqs = append(reqs, r)
		default:
			return reqs
		}
	}
	return reqs
}
