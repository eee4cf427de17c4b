package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// opClass is one dispatch class of the wire protocol as a client sees
// it. Batches and ranges are one op each: one request, one reply.
type opClass uint8

const (
	cGet opClass = iota
	cPut
	cDelete
	cNSGet
	cNSPut
	cGetTTL
	cPutTTL
	cGetBatch
	cPutBatch
	cRange
	numClasses
)

var className = [numClasses]string{"get", "put", "delete", "nsget", "nsput", "getttl", "putttl", "getbatch", "putbatch", "range"}

func (c opClass) String() string { return className[c] }

// isWrite reports whether the class mutates the store.
func (c opClass) isWrite() bool {
	switch c {
	case cPut, cDelete, cNSPut, cPutTTL, cPutBatch:
		return true
	}
	return false
}

const (
	batchKeys  = 32         // keys per GETBATCH/PUTBATCH
	rangeItems = 64         // items per RANGE
	ttlSeconds = 2          // PUTTTL lifetime
	ttlSlack   = 1          // seconds around an expiry in which a TTL read may go either way
	nTenants   = 16         // tenant namespaces a worker addresses
	tenantPad  = 64         // tenant keys per worker when the workload preloads none
	churnMul   = 0x9E3779B1 // odd, so i*churnMul is a bijection on uint32
)

// spec describes one workload: its loop, concurrency and key spaces.
type spec struct {
	name        string
	conns       int
	depth       int     // workers per connection
	openRate    float64 // total ops/s for an open loop; 0: closed loop
	defKeys     int     // preloaded default-keyspace keys, all workers
	tenantKeys  int     // preloaded keys per tenant, all workers (0: none)
	ttlKeys     int     // TTL key slots per worker
	mix         [numClasses]int
	churn       bool // default space: fresh PUTs at the top, DELETEs at the bottom, GETs skewed to recent
	scrambleDef bool // default-space keys are a bijective scramble of the index, so inserts land at random positions
}

func (s *spec) workers() int { return s.conns * s.depth }

var specs = []*spec{
	// The per-request path: client, proto, server dispatch and flush
	// syscalls, over keys whose images fit in cache.
	{
		name: "read_heavy", conns: 2, depth: 16,
		defKeys: 200000, ttlKeys: 64,
		mix: [numClasses]int{cGet: 90, cPut: 10},
	},
	// shard/hipma apply and the durable checkpoint: fresh inserts and
	// deletes at random positions, every shard dirty at every checkpoint.
	// 200k live keys rather than 500k: at 500k every checkpoint takes
	// 0.3-0.9 s, hidbd's own checkpointer and the client's leave no idle
	// time, and latency no longer repeats between runs.
	{
		name: "write_churn", conns: 2, depth: 32, openRate: 1500,
		defKeys: 200000, ttlKeys: 64,
		mix:   [numClasses]int{cPut: 40, cDelete: 40, cGet: 20},
		churn: true, scrambleDef: true,
	},
	// Every dispatch class, with batched and paged replies: a fast path
	// that helps only single GET/PUT shows its cost here.
	{
		name: "mixed_ops", conns: 2, depth: 8,
		defKeys: 200000, tenantKeys: 10000, ttlKeys: 512,
		mix: [numClasses]int{cGet: 14, cPut: 8, cDelete: 6, cNSGet: 14, cNSPut: 8, cGetTTL: 12, cPutTTL: 12, cGetBatch: 8, cPutBatch: 6, cRange: 12},
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// keyState is the model's view of one key.
type keyState struct {
	ver  uint32 // the value is valueOf(key, ver)
	live bool
	exp  int64 // absolute expiry in unix seconds; 0: none
}

// space is one worker's exclusive slice of a keyspace. Only its owner
// ever touches its keys, so the model of it is exact.
type space struct {
	ns       string // "" is the default keyspace
	tenant   int    // index of ns among the tenants
	owner    int
	region   int64 // keeps the default and TTL spaces of a worker apart
	scramble bool
	preN     int // indices below preN are preloaded with version 0
	st       []keyState
}

func (s *space) key(i int) int64 {
	u := uint32(i)
	if s.scramble {
		u *= churnMul
	}
	return int64(s.owner)<<40 | s.region<<32 | int64(u)
}

// hiKey bounds a RANGE to this space.
func (s *space) hiKey() int64 { return int64(s.owner)<<40 | s.region<<32 | math.MaxUint32 }

func (s *space) initial(i int) keyState { return keyState{live: i < s.preN} }

// state returns key i's model state, growing the space on first touch.
func (s *space) state(i int) *keyState {
	for len(s.st) <= i {
		s.st = append(s.st, s.initial(len(s.st)))
	}
	return &s.st[i]
}

// valueOf is the value written as version ver of key: every write
// stores a value that names both, so a stale or misrouted read can
// never match by accident.
func valueOf(key int64, ver uint32) int64 {
	x := uint64(key)*0x9E3779B97F4A7C15 ^ uint64(ver)*0xC2B2AE3D27D4EB4F
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x)
}

// op is one generated request.
type op struct {
	class opClass
	sp    *space
	idx   int   // first key index
	exp   int64 // PUTTTL expiry, filled at send time
}

// keysWritten is how many keys o writes.
func (o op) keysWritten() int64 {
	switch {
	case o.class == cPutBatch:
		return batchKeys
	case o.class.isWrite():
		return 1
	}
	return 0
}

// gen is one worker's deterministic op stream. It depends only on the
// seed and the worker, never on replies, so a replay of the stream is
// the same on every run.
type gen struct {
	sp     *spec
	rng    *rand.Rand
	def    *space
	ttl    *space
	ten    []*space
	cum    [numClasses]int
	total  int
	lo, hi int // churn window of live default keys
}

func newGen(sp *spec, seed uint64, w int) *gen {
	g := &gen{sp: sp, rng: rand.New(rand.NewPCG(seed, uint64(w)+1))}
	mk := func(ns string, region int64, preN int, scramble bool) *space {
		s := &space{ns: ns, owner: w, region: region, preN: preN, scramble: scramble}
		s.state(max(preN, 1) - 1)
		return s
	}
	nw := sp.workers()
	per := (sp.defKeys + nw - 1) / nw
	g.def = mk("", 0, per, sp.scrambleDef)
	g.ttl = mk("", 1, 0, false)
	g.ttl.state(sp.ttlKeys - 1)
	tper := (sp.tenantKeys + nw - 1) / nw
	for t := 0; t < nTenants; t++ {
		s := mk(tenantName(t), 0, tper, false)
		s.tenant = t
		s.state(max(tper, tenantPad) - 1)
		g.ten = append(g.ten, s)
	}
	g.hi = per
	acc := 0
	for c := opClass(0); c < numClasses; c++ {
		acc += sp.mix[c]
		g.cum[c] = acc
	}
	g.total = acc
	return g
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%02d", t) }

func (g *gen) spaces() []*space { return append([]*space{g.def, g.ttl}, g.ten...) }

// next draws the next op of the workload's mix.
func (g *gen) next() op {
	r := g.rng.IntN(g.total)
	c := opClass(0)
	for r >= g.cum[c] {
		c++
	}
	return g.of(c)
}

// of draws an op of class c.
func (g *gen) of(c opClass) op {
	o := op{class: c, sp: g.def}
	switch c {
	case cGet, cPut, cDelete:
		o.idx = g.pick(c)
	case cNSGet, cNSPut:
		o.sp = g.ten[g.rng.IntN(len(g.ten))]
		o.idx = g.rng.IntN(len(o.sp.st))
	case cGetTTL, cPutTTL:
		o.sp = g.ttl
		o.idx = g.rng.IntN(len(g.ttl.st))
	case cGetBatch, cPutBatch:
		o.idx = g.rng.IntN(g.def.preN - batchKeys + 1)
	case cRange:
		o.idx = g.rng.IntN(g.def.preN)
	}
	return o
}

// pick chooses the default-space key of a single GET/PUT/DELETE.
func (g *gen) pick(c opClass) int {
	if !g.sp.churn {
		return g.rng.IntN(g.def.preN)
	}
	switch c {
	case cPut: // a fresh key
		g.hi++
		return g.hi - 1
	case cDelete: // the oldest live key
		g.lo++
		return g.lo - 1
	}
	// A GET skewed toward recent keys: the distance back from the
	// newest key is log-uniform over the live window.
	span := float64(g.hi - g.lo)
	back := int(math.Exp(g.rng.Float64()*math.Log(span))) - 1
	return max(g.hi-1-back, g.lo)
}

// rangeExpect returns the first n live keys of s at or above index i
// in key order, with their expected values.
func rangeExpect(s *space, i, n int) []rangeItem {
	var out []rangeItem
	if !s.scramble {
		for j := i; j < len(s.st) && len(out) < n; j++ {
			if s.st[j].live {
				k := s.key(j)
				out = append(out, rangeItem{k, valueOf(k, s.st[j].ver)})
			}
		}
		return out
	}
	lo := s.key(i)
	for j := range s.st {
		if k := s.key(j); s.st[j].live && k >= lo {
			out = append(out, rangeItem{k, valueOf(k, s.st[j].ver)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key < out[b].key })
	return out[:min(len(out), n)]
}

type rangeItem struct{ key, val int64 }
