package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/cobt"
	"repro/internal/durable"
	"repro/internal/iomodel"
	"repro/internal/proto"
	"repro/internal/shard"
)

const (
	replayOps       = 60000 // ops replayed, the workers' streams interleaved round-robin
	replayCPEvery   = 4096  // written keys between replay checkpoints: hidbd's default threshold
	replayShards    = 8     // hidbd's defaults
	replaySeed      = 42
	replayRanges    = 1000 // RANGE probes behind shard.range_ns_per_item
	blockItems      = 64   // DAM block size B, in items
	preloadBatch    = 4096
	tenantKeyOffset = 48 // replayed tenant keys are shifted into their own region
)

// replayResult holds the replay's per-layer metrics and, for the
// ledger, each layer's mean ns per replayed request.
type replayResult struct {
	metrics                             map[string]metric
	protoNs, cobtNs, shardNs, durableNs float64
}

// rop is one op of the replayed stream, flattened onto the default
// keyspace: tenant keys move to a region of their own and TTLs are
// dropped, since the layers below the server know neither.
type rop struct {
	class opClass
	keys  []int64
	hi    int64 // RANGE upper bound
	vals  []int64
}

func flatKey(s *space, i int) int64 {
	k := s.key(i)
	if s.ns != "" {
		k |= int64(s.tenant+1) << tenantKeyOffset
	}
	return k
}

// replayStream regenerates the run's op stream from the seed: the
// preloaded items, then replayOps ops taken round-robin from the
// workers' generators. It is identical on every run with the seed.
func replayStream(sp *spec, seed uint64) (pre []shard.Item, ops []rop) {
	gens := newGens(sp, seed)
	for _, g := range gens {
		for _, s := range g.spaces() {
			for i := 0; i < s.preN; i++ {
				pre = append(pre, shard.Item{Key: flatKey(s, i), Val: valueOf(s.key(i), 0)})
			}
		}
	}
	for n := 0; n < replayOps; n++ {
		o := gens[n%len(gens)].next()
		r := rop{class: o.class}
		width := 1
		switch o.class {
		case cGetBatch, cPutBatch:
			width = batchKeys
		case cRange:
			r.hi = o.sp.hiKey()
		}
		for j := 0; j < width; j++ {
			k := flatKey(o.sp, o.idx+j)
			r.keys = append(r.keys, k)
			r.vals = append(r.vals, valueOf(k, uint32(n)+1))
		}
		ops = append(ops, r)
	}
	return pre, ops
}

// layer is the slice of a store's API the replay drives, so one loop
// times every layer on the same ops.
type layer interface {
	get(k int64)
	put(k, v int64)
	del(k int64)
	getBatch(ks []int64)
	putBatch(ks, vs []int64)
	rangeN(lo, hi int64, n int)
}

// opTimes accumulates one layer's time on the stream.
type opTimes struct {
	total, gets, writes time.Duration
	nGets, nWrites      int
}

func (t *opTimes) perOp(n int) float64 { return float64(t.total) / float64(n) }

// drive applies ops to l, timing each. after runs once per op, untimed
// (the durable replay checkpoints there).
func drive(l layer, ops []rop, after func(rop)) opTimes {
	var t opTimes
	for _, o := range ops {
		t0 := time.Now()
		switch o.class {
		case cGet, cNSGet, cGetTTL:
			l.get(o.keys[0])
		case cPut, cNSPut, cPutTTL:
			l.put(o.keys[0], o.vals[0])
		case cDelete:
			l.del(o.keys[0])
		case cGetBatch:
			l.getBatch(o.keys)
		case cPutBatch:
			l.putBatch(o.keys, o.vals)
		case cRange:
			l.rangeN(o.keys[0], o.hi, rangeItems)
		}
		d := time.Since(t0)
		t.total += d
		switch o.class {
		case cGet, cNSGet, cGetTTL:
			t.gets += d
			t.nGets++
		case cPut, cNSPut, cPutTTL, cDelete, cPutBatch:
			t.writes += d
			t.nWrites++
		}
		if after != nil {
			after(o)
		}
	}
	return t
}

// cobtLayer is the per-shard dictionaries with the store's routing.
type cobtLayer struct {
	route *shard.Store
	dicts []*cobt.Dictionary
	out   []cobt.Item
}

func newCobtLayer(route *shard.Store, trackers []*iomodel.Tracker) *cobtLayer {
	l := &cobtLayer{route: route}
	for i := 0; i < route.NumShards(); i++ {
		var t *iomodel.Tracker
		if trackers != nil {
			t = trackers[i]
		}
		l.dicts = append(l.dicts, cobt.New(replaySeed+uint64(i), t))
	}
	return l
}

func (l *cobtLayer) d(k int64) *cobt.Dictionary { return l.dicts[l.route.ShardOf(k)] }
func (l *cobtLayer) get(k int64)                { l.d(k).Get(k) }
func (l *cobtLayer) put(k, v int64)             { l.d(k).Put(k, v) }
func (l *cobtLayer) del(k int64)                { l.d(k).Delete(k) }
func (l *cobtLayer) getBatch(ks []int64) {
	for _, k := range ks {
		l.get(k)
	}
}
func (l *cobtLayer) putBatch(ks, vs []int64) {
	for i, k := range ks {
		l.put(k, vs[i])
	}
}
func (l *cobtLayer) rangeN(lo, hi int64, n int) {
	for _, d := range l.dicts {
		l.out = d.RangeN(lo, hi, n, l.out[:0])
	}
}

// preload inserts pre in the order shard.Store.PutBatch would, batch
// by batch and shard by shard, so the dictionaries match the store's.
func (l *cobtLayer) preload(pre []shard.Item) {
	for lo := 0; lo < len(pre); lo += preloadBatch {
		chunk := pre[lo:min(lo+preloadBatch, len(pre))]
		for sh, d := range l.dicts {
			for _, it := range chunk {
				if l.route.ShardOf(it.Key) == sh {
					d.Put(it.Key, it.Val)
				}
			}
		}
	}
}

func (l *cobtLayer) moves() (n uint64) {
	for _, d := range l.dicts {
		n += d.PMA().Moves()
	}
	return n
}

type shardLayer struct {
	s   *shard.Store
	out []shard.Item
}

func (l *shardLayer) get(k int64)         { l.s.Get(k) }
func (l *shardLayer) put(k, v int64)      { l.s.Put(k, v) }
func (l *shardLayer) del(k int64)         { l.s.Delete(k) }
func (l *shardLayer) getBatch(ks []int64) { l.s.GetBatch(ks) }
func (l *shardLayer) putBatch(ks, vs []int64) {
	l.s.PutBatch(items(ks, vs))
}
func (l *shardLayer) rangeN(lo, hi int64, n int) { l.out, _ = l.s.RangeN(lo, hi, n, l.out[:0]) }

type durableLayer struct {
	db  *durable.DB
	out []durable.Item
}

func (l *durableLayer) get(k int64)         { l.db.Get(k) }
func (l *durableLayer) put(k, v int64)      { l.db.Put(k, v) }
func (l *durableLayer) del(k int64)         { l.db.Delete(k) }
func (l *durableLayer) getBatch(ks []int64) { l.db.GetBatch(ks) }
func (l *durableLayer) putBatch(ks, vs []int64) {
	l.db.PutBatch(items(ks, vs))
}
func (l *durableLayer) rangeN(lo, hi int64, n int) { l.out, _ = l.db.RangeN(lo, hi, n, l.out[:0]) }

func items(ks, vs []int64) []shard.Item {
	out := make([]shard.Item, len(ks))
	for i := range ks {
		out[i] = shard.Item{Key: ks[i], Val: vs[i]}
	}
	return out
}

// countFS passes every call to the real filesystem and counts fsyncs.
type countFS struct {
	durable.FS
	syncs *int
}

type countFile struct {
	durable.File
	syncs *int
}

func (f countFS) Create(name string) (durable.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return countFile{h, f.syncs}, nil
}

func (f countFS) OpenWrite(name string) (durable.File, error) {
	h, err := f.FS.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return countFile{h, f.syncs}, nil
}

func (f countFS) SyncDir(dir string) error {
	*f.syncs++
	return f.FS.SyncDir(dir)
}

func (f countFile) Sync() error {
	*f.syncs++
	return f.File.Sync()
}

// exactCounts are the replay's deterministic counts: the same seed
// must give the same values on every run.
type exactCounts struct {
	moves, getIOs, updIOs, getKeys, updKeys uint64
}

// countCobt replays the stream through trackers with B = blockItems and
// no cache, counting element moves and block transfers.
func countCobt(route *shard.Store, pre []shard.Item, ops []rop) exactCounts {
	trackers := make([]*iomodel.Tracker, route.NumShards())
	for i := range trackers {
		trackers[i] = iomodel.New(blockItems, 0)
	}
	l := newCobtLayer(route, trackers)
	l.preload(pre)
	ios := func() (n uint64) {
		for _, t := range trackers {
			n += t.IOs()
		}
		return n
	}
	var c exactCounts
	m0 := l.moves()
	for _, o := range ops {
		before := ios()
		switch o.class {
		case cGet, cNSGet, cGetTTL, cGetBatch:
			l.getBatch(o.keys)
			c.getIOs += ios() - before
			c.getKeys += uint64(len(o.keys))
		case cPut, cNSPut, cPutTTL, cPutBatch:
			l.putBatch(o.keys, o.vals)
			c.updIOs += ios() - before
			c.updKeys += uint64(len(o.keys))
		case cDelete:
			l.del(o.keys[0])
			c.updIOs += ios() - before
			c.updKeys++
		case cRange:
			l.rangeN(o.keys[0], o.hi, rangeItems)
		}
	}
	c.moves = l.moves() - m0
	return c
}

// replay drives the run's op stream single-threaded through cobt,
// shard, durable and proto in-process, bottom-up, and measures each.
func replay(sp *spec, seed uint64, dir string) (*replayResult, error) {
	pre, ops := replayStream(sp, seed)
	rp := &replayResult{metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rp.metrics[name] = metric{v, unit} }
	n := len(ops)

	route, err := shard.New(replayShards, replaySeed, nil)
	if err != nil {
		return nil, err
	}
	// Exact counts, twice: they must agree to the last element move.
	c1 := countCobt(route, pre, ops)
	c2 := countCobt(route, pre, ops)
	if c1 != c2 {
		return nil, fmt.Errorf("replay counts differ between two replays of one stream: %+v vs %+v", c1, c2)
	}
	put("hipma.moves_per_update", float64(c1.moves)/float64(max(c1.updKeys, 1)), "count")
	put("cobt.block_transfers_per_get", float64(c1.getIOs)/float64(max(c1.getKeys, 1)), "count")
	put("cobt.block_transfers_per_update", float64(c1.updIOs)/float64(max(c1.updKeys, 1)), "count")

	// cobt, timed.
	cl := newCobtLayer(route, nil)
	cl.preload(pre)
	runtime.GC()
	ct := drive(cl, ops, nil)
	rp.cobtNs = ct.perOp(n)

	// shard.
	st, err := shard.New(replayShards, replaySeed, nil)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(pre); lo += preloadBatch {
		st.PutBatch(pre[lo:min(lo+preloadBatch, len(pre))])
	}
	sl := &shardLayer{s: st}
	runtime.GC()
	stt := drive(sl, ops, nil)
	rp.shardNs = stt.perOp(n)
	put("shard.apply_ns_per_op", float64(stt.writes)/float64(max(stt.nWrites, 1)), "ns")
	put("shard.get_ns", float64(stt.gets)/float64(max(stt.nGets, 1)), "ns")
	rng := rand.New(rand.NewPCG(seed, 0))
	var items int
	t0 := time.Now()
	for i := 0; i < replayRanges; i++ {
		lo := pre[rng.IntN(len(pre))].Key
		got, _ := st.RangeN(lo, lo|0xFFFFFFFF, rangeItems, sl.out[:0])
		items += len(got)
	}
	put("shard.range_ns_per_item", float64(time.Since(t0))/float64(max(items, 1)), "ns")
	t0 = time.Now()
	for i := 0; i < st.NumShards(); i++ {
		if _, err := st.WriteShard(i, io.Discard); err != nil {
			return nil, err
		}
	}
	put("shard.image_ms_per_shard", float64(time.Since(t0))/1e6/float64(st.NumShards()), "ms")

	// durable, through a counting filesystem, checkpointing as hidbd's
	// threshold would.
	syncs := 0
	opts := &durable.Options{Shards: replayShards, Seed: replaySeed, NoBackground: true,
		FS: countFS{durable.OS(), &syncs}}
	db, err := durable.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(pre); lo += preloadBatch {
		db.PutBatch(pre[lo:min(lo+preloadBatch, len(pre))])
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	var cpErr error
	var cps int
	var cpAlloc uint64
	dirty := 0
	syncs0 := syncs
	checkpoint := func() {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		if err := db.Checkpoint(); err != nil && cpErr == nil {
			cpErr = err
		}
		runtime.ReadMemStats(&b)
		cpAlloc += b.TotalAlloc - a.TotalAlloc
		cps++
	}
	dl := &durableLayer{db: db}
	runtime.GC()
	dt := drive(dl, ops, func(o rop) {
		if o.class.isWrite() {
			dirty += len(o.keys)
		}
		if dirty >= replayCPEvery {
			checkpoint()
			dirty = 0
		}
	})
	checkpoint()
	cpSyncs := syncs - syncs0
	if err := db.Close(); err != nil && cpErr == nil {
		cpErr = err
	}
	if cpErr != nil {
		return nil, fmt.Errorf("replay checkpoint: %w", cpErr)
	}
	rp.durableNs = dt.perOp(n)
	put("durable.apply_ns_per_op", float64(dt.writes)/float64(max(dt.nWrites, 1)), "ns")
	put("durable.get_ns", float64(dt.gets)/float64(max(dt.nGets, 1)), "ns")
	put("durable.checkpoint_alloc_mb", float64(cpAlloc)/float64(cps)/(1<<20), "MB")
	put("durable.fsyncs_per_checkpoint", float64(cpSyncs)/float64(cps), "count")
	t0 = time.Now()
	db, err = durable.Open(dir, &durable.Options{NoBackground: true})
	if err != nil {
		return nil, fmt.Errorf("replay recover: %w", err)
	}
	put("durable.recover_ms", float64(time.Since(t0))/1e6, "ms")
	db.Close()

	// proto: the stream's request frames and their replies, encoded and
	// decoded.
	enc, dec, frames := protoReplay(ops)
	put("proto.encode_ns_per_frame", enc/float64(frames), "ns")
	put("proto.decode_ns_per_frame", dec/float64(frames), "ns")
	rp.protoNs = (enc + dec) / float64(n)
	return rp, nil
}

// protoReplay encodes each op's request frame and a reply frame of the
// shape hidbd sends, then decodes them all; it returns total encode and
// decode ns and the frame count.
func protoReplay(ops []rop) (enc, dec float64, frames int) {
	payloads := make([][]byte, 0, 2*len(ops))
	codes := make([]byte, 0, 2*len(ops))
	for _, o := range ops {
		req, rep, code := wirePayloads(o)
		payloads = append(payloads, req, rep)
		codes = append(codes, code, code|proto.FlagReply)
	}
	buf := make([]byte, 0, 64<<20)
	t0 := time.Now()
	for i, p := range payloads {
		buf = proto.AppendFrame(buf, proto.Frame{Ver: proto.Version, Op: codes[i], ID: uint64(i + 1), Payload: p})
	}
	enc = float64(time.Since(t0))
	r := bytes.NewReader(buf)
	t0 = time.Now()
	for {
		if _, err := proto.ReadFrame(r, proto.MaxPayload); err != nil {
			break
		}
		frames++
	}
	dec = float64(time.Since(t0))
	return enc, dec, frames
}

func wirePayloads(o rop) (req, rep []byte, code byte) {
	k, v := o.keys[0], o.vals[0]
	switch o.class {
	case cGet:
		return proto.AppendKey(nil, k), proto.AppendFound(nil, true, v, 1), proto.OpGet
	case cPut:
		return proto.AppendKeyVal(nil, k, v), proto.AppendBool(nil, false), proto.OpPut
	case cDelete:
		return proto.AppendKey(nil, k), proto.AppendBool(nil, true), proto.OpDel
	case cNSGet:
		return proto.AppendNSKey(nil, "tenant-00", k), proto.AppendFoundTTL(nil, true, v, 0, 1), proto.OpNSGet
	case cNSPut:
		return proto.AppendNSKeyValExp(nil, "tenant-00", k, v, 0), proto.AppendTTLAck(nil, false, 0), proto.OpNSPut
	case cGetTTL:
		return proto.AppendKey(nil, k), proto.AppendFoundTTL(nil, true, v, 1, 1), proto.OpGetTTL
	case cPutTTL:
		return proto.AppendKeyValExp(nil, k, v, 1), proto.AppendTTLAck(nil, false, 1), proto.OpPutTTL
	case cGetBatch:
		found := make([]bool, len(o.keys))
		for i := range found {
			found[i] = true
		}
		return proto.AppendBatchKeys(nil, proto.BatchGet, o.keys), proto.AppendBatchGetReply(nil, o.vals, found, 1), proto.OpBatch
	case cPutBatch:
		return proto.AppendBatchPut(nil, items(o.keys, o.vals)), proto.AppendU32(nil, 0), proto.OpBatch
	}
	its := make([]proto.Item, rangeItems)
	for i := range its {
		its[i] = proto.Item{Key: k + int64(i), Val: v}
	}
	return proto.AppendRangeReq(nil, k, o.hi, rangeItems), proto.AppendRangeReply(nil, its, true, 1), proto.OpRange
}
