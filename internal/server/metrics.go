package server

import (
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
)

// opLabels maps each request opcode to its metric label — the fixed
// vocabulary the per-opcode latency histograms and the slow-op log
// use. Only names from this table ever reach telemetry output.
var opLabels = map[byte]string{
	proto.OpGet:        "get",
	proto.OpPut:        "put",
	proto.OpDel:        "del",
	proto.OpBatch:      "batch",
	proto.OpRange:      "range",
	proto.OpLen:        "len",
	proto.OpCheckpoint: "checkpoint",
	proto.OpPing:       "ping",
	proto.OpShardHash:  "shard_hash",
	proto.OpSync:       "sync",
	proto.OpPutTTL:     "put_ttl",
	proto.OpGetTTL:     "get_ttl",
	proto.OpHealth:     "health",
	proto.OpPromote:    "promote",
	proto.OpNSPut:      "ns_put",
	proto.OpNSGet:      "ns_get",
	proto.OpNSDel:      "ns_del",
	proto.OpDropNS:     "drop_ns",
	proto.OpListNS:     "list_ns",
}

// serverMetrics is the server's hot-path metric set: one latency
// histogram per opcode, one histogram per request phase, and size
// histograms for flush bursts and coalesced batches. Every field is
// non-nil even without a registry (obs is nil-registry safe), so
// recording sites never branch. Recording is a few atomic adds —
// the instrumented paths keep their 0-alloc budgets.
type serverMetrics struct {
	// ops is indexed directly by opcode byte; unknown opcodes map to
	// nil and are simply not timed.
	ops [256]*obs.Histogram

	phaseDecode *obs.Histogram // payload decode
	phaseWait   *obs.Histogram // coalesce-wait (writes) / in-flight-write barrier (reads)
	phaseApply  *obs.Histogram // store/db work
	phaseEncode *obs.Histogram // reply build + enqueue
	phaseFlush  *obs.Histogram // one outbound burst's syscall
	flushBytes  *obs.Histogram // bytes per outbound burst
	batchOps    *obs.Histogram // ops per coalesced write batch
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	m := &serverMetrics{}
	const opHelp = "request latency by opcode, receipt to reply enqueued"
	for op, label := range opLabels {
		m.ops[op] = r.HistogramL("hidb_server_op_seconds", "op", label, opHelp, obs.UnitSeconds)
		// Exemplars link each latency bucket to the last kept trace
		// that landed in it. Arming is unconditional — an exemplar slab
		// is only ever fed from kept traces, and Observe itself never
		// touches it, so the no-tracing hot path is unchanged.
		m.ops[op].EnableExemplars()
	}
	const phaseHelp = "time per request phase: decode, coalesce_wait, apply, encode, flush"
	m.phaseDecode = r.HistogramL("hidb_server_phase_seconds", "phase", "decode", phaseHelp, obs.UnitSeconds)
	m.phaseWait = r.HistogramL("hidb_server_phase_seconds", "phase", "coalesce_wait", phaseHelp, obs.UnitSeconds)
	m.phaseApply = r.HistogramL("hidb_server_phase_seconds", "phase", "apply", phaseHelp, obs.UnitSeconds)
	m.phaseEncode = r.HistogramL("hidb_server_phase_seconds", "phase", "encode", phaseHelp, obs.UnitSeconds)
	m.phaseFlush = r.HistogramL("hidb_server_phase_seconds", "phase", "flush", phaseHelp, obs.UnitSeconds)
	m.flushBytes = r.Histogram("hidb_server_flush_bytes", "bytes written per outbound reply burst", obs.UnitBytes)
	m.batchOps = r.Histogram("hidb_server_write_batch_ops", "operations per coalesced write batch", obs.UnitNone)
	return m
}

// registerServerFuncs exposes the server's existing atomic counters
// (and the durable layer's totals) on the registry as read-at-scrape
// functions — no double counting anywhere on the hot path.
func registerServerFuncs(r *obs.Registry, s *Server) {
	st, db := &s.st, s.db
	r.CounterFunc("hidb_server_requests_total", "frames dispatched", func() uint64 { return st.requests.Load() })
	r.CounterFunc("hidb_server_errors_total", "error frames sent", func() uint64 { return st.errors.Load() })
	r.CounterFunc("hidb_server_bytes_in_total", "request bytes received", func() uint64 { return st.bytesIn.Load() })
	r.CounterFunc("hidb_server_bytes_out_total", "reply bytes written", func() uint64 { return st.bytesOut.Load() })
	r.CounterFunc("hidb_server_conns_accepted_total", "connections accepted", func() uint64 { return st.connsAccepted.Load() })
	r.CounterFunc("hidb_server_conns_rejected_total", "connections refused at the MaxConns limit", func() uint64 { return st.connsRejected.Load() })
	r.GaugeFunc("hidb_server_conns_active", "connections currently served", func() float64 { return float64(st.connsActive.Load()) })
	r.CounterFunc("hidb_server_write_batches_total", "coalescer drains applied", func() uint64 { return st.wBatches.Load() })
	r.CounterFunc("hidb_server_write_batched_ops_total", "write ops through the coalescer", func() uint64 { return st.wBatchedOps.Load() })
	r.CounterFunc("hidb_server_read_only_rejected_total", "writes refused because this node is a replica", func() uint64 { return st.readOnlyRejected.Load() })
	r.CounterFunc("hidb_server_promotions_total", "replica-to-primary promotions of this process", func() uint64 { return s.promotions.Load() })
	r.CounterFunc("hidb_server_sweeps_total", "epoch sweeps that submitted expire ops", func() uint64 { return st.sweeps.Load() })
	r.CounterFunc("hidb_server_swept_keys_total", "expired entries physically removed", func() uint64 { return db.SweptKeys() })
	r.CounterFunc("hidb_server_checkpoints_total", "checkpoints committed", func() uint64 { return db.Checkpoints() })
	r.GaugeFunc("hidb_server_pending_ops", "mutations not yet covered by a checkpoint", func() float64 { return float64(db.PendingOps()) })
	r.GaugeFunc("hidb_server_keys_physical", "keys physically present, including expired-but-unswept entries (per-shard sums, no atomic cut)",
		func() float64 { return float64(physicalLen(db)) })
	r.GaugeFunc("hidb_server_keys_logical", "live keys — expired entries excluded — at an atomic cut",
		func() float64 { return float64(db.Store().Len()) })
	// Namespace telemetry is aggregate-only by contract: counts and
	// totals, never a tenant-name label — a scraped metrics page must
	// not double as a tenant roster (see docs/OBSERVABILITY.md).
	r.GaugeFunc("hidb_server_namespaces", "live tenant namespaces with at least one live key",
		func() float64 { return float64(db.NamespaceCount()) })
	r.CounterFunc("hidb_server_ns_ops_total", "namespaced requests dispatched, all tenants", func() uint64 { return st.nsOps.Load() })
	r.CounterFunc("hidb_server_ns_quota_rejected_total", "namespaced puts refused at the per-tenant quota", func() uint64 { return st.nsQuotaRejected.Load() })
	r.CounterFunc("hidb_server_ns_drops_total", "tenant erasures requested via DROPNS", func() uint64 { return st.nsDrops.Load() })
}

// physicalLen sums the shards' physical entry counts one brief lock at
// a time: cheap to scrape, and deliberately DISTINCT from the logical
// length — under TTL load the physical count includes entries that are
// already dead but not yet swept, so the two disagreeing is signal
// (sweep backlog), not a bug. See docs/OBSERVABILITY.md.
func physicalLen(db *durable.DB) int {
	store := db.Store()
	n := 0
	for i := 0; i < store.NumShards(); i++ {
		n += store.ShardLen(i)
	}
	return n
}

// keep mints r's span identity when tracing is on, which keeps the
// request. Barriers are kept ahead of their apply — a barrier is worth
// a trace by definition — so they can hand the identity to the durable
// layer and the checkpoint span parents under the request; finish keeps
// every other request that qualifies.
func (s *Server) keep(r *request) {
	if s.tr == nil {
		return
	}
	if r.tid = r.tc.ID; r.tid == 0 {
		r.tid = s.tr.NewID()
	}
	r.sid = s.tr.NewID()
}

// shardOf is the shard index a keyed request's telemetry reports: -1
// for unkeyed ops and tenant cells, whose routing stays secret. The key
// itself never reaches telemetry.
func (s *Server) shardOf(r *request) int {
	if !opTable[r.op].keyed {
		return -1
	}
	return s.db.Store().ShardOf(r.key)
}

// finish answers r and runs the per-request tail: every reply, inline
// or coalesced, success or error, goes through it. It enqueues the
// reply (payload, or an error frame when code is nonzero), releases a
// coalesced write's pending count, and then records the opcode latency
// histogram (successes only; errors are counted, not timed), the span
// tree when the request is kept, and the slow-op record when it crossed
// the threshold. It reads the clock once, for the end of the encode
// phase, and returns that time.
//
// A request is kept when it already carries an identity, when the
// client head-sampled it, when it failed or was slow, or — arriving
// with no trace context, so no client decision to defer to — when the
// server's own head sample picks it. Every rule but slowness is decided
// before the reply is queued, so the reply arms the flush attribution
// itself.
func (s *Server) finish(r *request, payload []byte, code byte, msg string) time.Time {
	tr := s.tr
	if tr != nil && r.sid == 0 && (r.tc.Sampled || code != 0 || (r.tc.ID == 0 && tr.Sample())) {
		s.keep(r)
	}
	out := r.c.reply(r, payload, code, msg)
	if r.queued {
		r.c.pending.Done()
	}
	te := time.Now()
	total := te.Sub(r.t0)
	h := s.sm.ops[r.op]
	if code == 0 && h != nil {
		h.Observe(int64(total))
	}
	slow := s.slow.Slow(total)
	if tr != nil && r.sid == 0 && slow {
		s.keep(r)
		r.c.noteFlushTrace(r.tid, r.sid)
	}
	if r.sid != 0 {
		s.recordSpans(r, te, out, code)
		if code == 0 && h != nil {
			h.Exemplar(int64(total), r.tid)
		}
	}
	if slow {
		s.slow.Record(obs.SlowOp{
			Op: opLabels[r.op], ReqID: r.id, Shard: s.shardOf(r),
			BytesIn: r.in, BytesOut: out, Batch: r.batch,
			Total: total, Decode: r.td.Sub(r.t0), Wait: r.tw.Sub(r.td),
			Apply: r.ta.Sub(r.tw), Encode: te.Sub(r.ta),
			Trace: r.tid,
		})
	}
	return te
}

// recordSpans records a kept request's span tree under its identity:
// the server span, parented under the client's span, with its decode /
// wait / apply / encode children and, for a coalesced write, the batch
// span.
func (s *Server) recordSpans(r *request, te time.Time, out int, code byte) {
	tr, tid, sid := s.tr, r.tid, r.sid
	shard := int32(s.shardOf(r))
	tr.Record(trace.Span{
		Trace: tid, ID: sid, Parent: r.tc.Span,
		Start: r.t0.UnixNano(), Dur: int64(te.Sub(r.t0)),
		Kind: trace.KindServer, Op: r.op, Err: code, Shard: shard,
		In: int32(r.in), Out: int32(out),
	})
	child := func(k trace.Kind, from, to time.Time, in int32) {
		tr.Record(trace.Span{Trace: tid, ID: tr.NewID(), Parent: sid,
			Start: from.UnixNano(), Dur: int64(to.Sub(from)), Kind: k, Shard: shard, In: in})
	}
	child(trace.KindDecode, r.t0, r.td, 0)
	child(trace.KindWait, r.td, r.tw, 0)
	if r.batch > 0 {
		child(trace.KindBatch, r.tw, r.ta, int32(r.batch))
	}
	child(trace.KindApply, r.tw, r.ta, 0)
	child(trace.KindEncode, r.ta, te, 0)
}
