package server

import (
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/proto"
)

// opClass is how the request path schedules an opcode.
type opClass uint8

const (
	// classUnknown marks opcodes outside the table: ErrCodeUnknownOp.
	classUnknown opClass = iota
	// classRead runs inline on the reader goroutine, after this
	// connection's in-flight writes have applied (program order).
	classRead
	// classWrite is decoded into a writeReq and handed to the write
	// coalescer, which applies it and replies.
	classWrite
	// classBarrier runs inline like a read, but is always traced: its
	// span identity exists before the apply so the durable layer's
	// checkpoint span can parent under the request (CHECKPOINT; DROPNS,
	// the erasure barrier, is coalesced and is kept in the batcher).
	classBarrier
	// classAdmin runs inline WITHOUT waiting for in-flight writes: a
	// health probe or a replica's sync fetch must answer even when the
	// write path is backed up.
	classAdmin
)

// opEntry is one opcode's row in the table: how it is scheduled, and
// the three steps the request path runs for it. decode fills args from
// the payload; exec does the store/db work, leaving its results in args
// (nil: no apply phase); encode appends the reply payload to dst. Write
// entries have only decode: the batcher applies and replies.
type opEntry struct {
	class opClass
	// keyed: the decoded key routes to a default-keyspace shard, which
	// the slow-op record and span tree then report (tenant cells keep
	// their routing secret).
	keyed bool
	// mutating reports, from the raw payload, whether the request would
	// change the database — what a read replica refuses, before decoding
	// (nil: never).
	mutating func(p []byte) bool
	decode   func(a *args, p []byte) error
	exec     func(c *conn, a *args) error
	encode   func(c *conn, a *args, dst []byte) []byte
}

// args is one request's decoded operands and, after exec, the results
// encode serializes: a union over the table's opcodes, reset per
// request. It is reader-goroutine scratch held by the conn, so the
// table's function values can take its address without a per-request
// heap allocation.
type args struct {
	key, val, exp int64 // key-addressed ops; exp is also a read result
	ns            string
	lo, hi        int64        // RANGE window
	max           uint32       // RANGE item cap, SYNC chunk cap
	kind          byte         // BATCH kind
	items         []proto.Item // BATCH-put entries; RANGE result
	keys          []int64      // BATCH-get/del keys
	shard         uint32       // SYNC shard index
	hash          [32]byte     // SYNC image hash
	off           uint64       // SYNC offset
	tid, sid      uint64       // CHECKPOINT: the kept request's span identity

	ok, more bool
	n        uint64 // counts, checkpoint/promotion numbers, SHARDHASH seed
	vals     []int64
	found    []bool
	data     []byte // PING echo, SYNC chunk
	names    []string
	hashes   []durable.ShardHash
	nss      []durable.NamespaceStat
}

// errBadRequest marks an exec failure caused by the request's operands
// (ErrCodeBadFrame) rather than by the server.
var errBadRequest = errors.New("server: bad request")

// codeOf maps an exec failure to its wire error code.
func codeOf(err error) byte {
	switch {
	case errors.Is(err, errBadRequest), errors.Is(err, durable.ErrNoNamespace):
		return proto.ErrCodeBadFrame
	case errors.Is(err, durable.ErrStaleShard):
		return proto.ErrCodeStale
	case errors.Is(err, ErrNotReplica):
		return proto.ErrCodeNotReplica
	}
	return proto.ErrCodeInternal
}

var errPayload = errors.New("server: request carries a payload")

func always([]byte) bool { return true }

// anyPayload decodes ops that ignore their payload.
func anyPayload(*args, []byte) error { return nil }

func noPayload(_ *args, p []byte) error {
	if len(p) != 0 {
		return errPayload
	}
	return nil
}

func decodeKey(a *args, p []byte) (err error) {
	a.key, err = proto.DecodeKey(p)
	return err
}

func decodeNSKey(a *args, p []byte) (err error) {
	a.ns, a.key, err = proto.DecodeNSKey(p)
	return err
}

func decodeNSName(a *args, p []byte) (err error) {
	a.ns, err = proto.DecodeNSName(p)
	return err
}

func encodeFoundTTL(c *conn, a *args, dst []byte) []byte {
	return proto.AppendFoundTTL(dst, a.ok, a.val, a.exp, c.srv.db.Checkpoints())
}

func encodeU64(_ *conn, a *args, dst []byte) []byte { return proto.AppendU64(dst, a.n) }

// opTable is the request path's single dispatch table, indexed by
// opcode. Metric labels live beside it in opLabels.
var opTable = [256]opEntry{
	proto.OpGet: {class: classRead, keyed: true, decode: decodeKey,
		exec: func(c *conn, a *args) error {
			c.srv.st.reads.Add(1)
			a.val, a.ok = c.srv.db.Get(a.key)
			return nil
		},
		encode: func(c *conn, a *args, dst []byte) []byte {
			return proto.AppendFound(dst, a.ok, a.val, c.srv.db.Checkpoints())
		},
	},
	proto.OpGetTTL: {class: classRead, keyed: true, decode: decodeKey,
		exec: func(c *conn, a *args) error {
			c.srv.st.reads.Add(1)
			a.val, a.exp, a.ok = c.srv.db.GetTTL(a.key)
			return nil
		},
		encode: encodeFoundTTL,
	},
	proto.OpNSGet: {class: classRead, decode: decodeNSKey,
		exec: func(c *conn, a *args) error {
			c.srv.st.reads.Add(1)
			c.srv.st.nsOps.Add(1)
			a.val, a.exp, a.ok = c.srv.db.NSGetTTL(a.ns, a.key)
			return nil
		},
		encode: encodeFoundTTL,
	},
	proto.OpBatch: {class: classRead,
		mutating: func(p []byte) bool { return len(p) < 1 || p[0] != proto.BatchGet },
		decode: func(a *args, p []byte) (err error) {
			a.kind, a.items, a.keys, err = proto.DecodeBatch(p)
			return err
		},
		exec: func(c *conn, a *args) error {
			s := c.srv
			switch a.kind {
			case proto.BatchPut:
				s.st.writes.Add(uint64(len(a.items)))
				a.n = uint64(s.db.PutBatch(a.items))
			case proto.BatchGet:
				s.st.reads.Add(uint64(len(a.keys)))
				a.vals, a.found = s.db.GetBatch(a.keys)
			case proto.BatchDel:
				s.st.writes.Add(uint64(len(a.keys)))
				a.n = uint64(s.db.DeleteBatch(a.keys))
			}
			return nil
		},
		encode: func(c *conn, a *args, dst []byte) []byte {
			if a.kind == proto.BatchGet {
				return proto.AppendBatchGetReply(dst, a.vals, a.found, c.srv.db.Checkpoints())
			}
			return proto.AppendU32(dst, uint32(a.n))
		},
	},
	proto.OpRange: {class: classRead,
		decode: func(a *args, p []byte) (err error) {
			a.lo, a.hi, a.max, err = proto.DecodeRangeReq(p)
			return err
		},
		exec: func(c *conn, a *args) error {
			s := c.srv
			s.st.reads.Add(1)
			limit := s.cfg.MaxRangeItems
			if a.max > 0 && int(a.max) < limit {
				limit = int(a.max)
			}
			// RangeN bounds work and memory by the limit, not the window
			// size, so a whole-keyspace RANGE costs O(shards·limit).
			a.items, a.more = s.db.RangeN(a.lo, a.hi, limit, c.rangeBuf[:0])
			c.rangeBuf = a.items
			return nil
		},
		encode: func(c *conn, a *args, dst []byte) []byte {
			return proto.AppendRangeReply(dst, a.items, a.more, c.srv.db.Checkpoints())
		},
	},
	proto.OpLen: {class: classRead, decode: anyPayload,
		exec: func(c *conn, a *args) error {
			c.srv.st.reads.Add(1)
			a.n = uint64(c.srv.db.Len())
			return nil
		},
		encode: func(c *conn, a *args, dst []byte) []byte {
			return proto.AppendLenReply(dst, a.n, c.srv.db.Checkpoints())
		},
	},
	proto.OpListNS: {class: classRead, decode: noPayload,
		exec: func(c *conn, a *args) error {
			c.srv.st.reads.Add(1)
			c.srv.st.nsOps.Add(1)
			a.nss = c.srv.db.Namespaces()
			return nil
		},
		encode: func(c *conn, a *args, dst []byte) []byte {
			out := make([]proto.NSStat, len(a.nss))
			for i, e := range a.nss {
				out[i] = proto.NSStat{Name: e.Name, Keys: uint64(e.Keys)}
			}
			return proto.AppendNSList(dst, uint64(c.srv.cfg.NSQuota), out)
		},
	},
	// Replication: advertise the last committed checkpoint's canonical
	// per-shard hashes. An empty request addresses the default keyspace
	// (the reply appends the committed namespace-name table); one
	// carrying nslen(2) ns addresses that tenant's cell. As a read it
	// waits for this connection's writes, so SHARDHASH-after-CHECKPOINT
	// sees that checkpoint.
	proto.OpShardHash: {class: classRead,
		decode: func(a *args, p []byte) error {
			if len(p) == 0 {
				return nil
			}
			return decodeNSName(a, p)
		},
		exec: func(c *conn, a *args) (err error) {
			db := c.srv.db
			c.srv.st.syncHashes.Add(1)
			if a.ns != "" {
				a.n, a.hashes, err = db.NSShardHashes(a.ns)
				return err
			}
			if a.n, a.hashes, err = db.ShardHashes(); err != nil {
				return err
			}
			a.names, err = db.NSNames()
			return err
		},
		encode: func(_ *conn, a *args, dst []byte) []byte {
			out := make([]proto.ShardHash, len(a.hashes))
			for i, e := range a.hashes {
				out[i] = proto.ShardHash{Size: e.Size, Hash: e.Hash}
			}
			if a.ns != "" {
				return proto.AppendShardHashes(dst, a.n, out)
			}
			return proto.AppendShardHashesNS(dst, a.n, out, a.names)
		},
	},
	// A durability barrier: everything this connection has been
	// acknowledged for is on disk when the reply arrives.
	proto.OpCheckpoint: {class: classBarrier, mutating: always, decode: anyPayload,
		exec: func(c *conn, a *args) error {
			if err := c.srv.db.CheckpointTraced(a.tid, a.sid); err != nil {
				return err
			}
			a.n = c.srv.db.Checkpoints()
			return nil
		},
		encode: encodeU64,
	},
	// The payload aliases the FrameReader's buffer; encode copies it
	// into the reply before the next frame can overwrite it.
	proto.OpPing: {class: classAdmin,
		decode: func(a *args, p []byte) error { a.data = p; return nil },
		encode: func(_ *conn, a *args, dst []byte) []byte { return append(dst, a.data...) },
	},
	// A liveness probe with a staleness report.
	proto.OpHealth: {class: classAdmin, decode: noPayload,
		encode: func(c *conn, _ *args, dst []byte) []byte {
			s := c.srv
			epoch, hash := s.db.CheckpointStamp()
			return proto.AppendHealth(dst, proto.Health{
				ReadOnly:   s.readOnly.Load(),
				Promotions: s.promotions.Load(),
				Epoch:      epoch,
				Hash:       hash,
			})
		},
	},
	proto.OpPromote: {class: classAdmin, decode: noPayload,
		exec: func(c *conn, a *args) (err error) {
			a.n, err = c.srv.Promote()
			return err
		},
		encode: encodeU64,
	},
	proto.OpSync: {class: classAdmin,
		decode: func(a *args, p []byte) (err error) {
			a.shard, a.hash, a.off, a.max, a.ns, err = proto.DecodeSyncReqNS(p)
			return err
		},
		exec: execSync,
		encode: func(_ *conn, a *args, dst []byte) []byte {
			return proto.AppendSyncChunk(dst, a.more, a.data)
		},
	},
	proto.OpPut: {class: classWrite, keyed: true, mutating: always,
		decode: func(a *args, p []byte) (err error) {
			a.key, a.val, err = proto.DecodeKeyVal(p)
			return err
		},
	},
	proto.OpPutTTL: {class: classWrite, keyed: true, mutating: always,
		decode: func(a *args, p []byte) (err error) {
			a.key, a.val, a.exp, err = proto.DecodeKeyValExp(p)
			return err
		},
	},
	proto.OpDel: {class: classWrite, keyed: true, mutating: always, decode: decodeKey},
	proto.OpNSPut: {class: classWrite, mutating: always,
		decode: func(a *args, p []byte) (err error) {
			a.ns, a.key, a.val, a.exp, err = proto.DecodeNSKeyValExp(p)
			return err
		},
	},
	proto.OpNSDel:  {class: classWrite, mutating: always, decode: decodeNSKey},
	proto.OpDropNS: {class: classWrite, mutating: always, decode: decodeNSName},
}

// execSync serves one chunk of a committed shard image through the
// one-entry sync cache.
func execSync(c *conn, a *args) error {
	s := c.srv
	s.st.syncChunks.Add(1)
	img, err := s.shardImage(a.ns, int(a.shard), a.hash)
	if err != nil {
		return err
	}
	if a.off > uint64(len(img)) {
		return fmt.Errorf("%w: offset %d past the %d-byte image", errBadRequest, a.off, len(img))
	}
	limit := s.cfg.MaxSyncChunk
	if a.max > 0 && int(a.max) < limit {
		limit = int(a.max)
	}
	end := min(int(a.off)+limit, len(img))
	a.data, a.more = img[a.off:end], end < len(img)
	if !a.more {
		// The fetcher just took the image's last chunk; release the
		// cache rather than pin a whole shard image between syncs.
		s.syncMu.Lock()
		if s.syncNS == a.ns && s.syncIdx == int(a.shard) && s.syncHash == a.hash {
			s.syncImage = nil
		}
		s.syncMu.Unlock()
	}
	s.st.syncBytesOut.Add(uint64(len(a.data)))
	return nil
}
