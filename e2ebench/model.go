package main

import (
	"fmt"
	"math"
)

// reply is what the server answered to one op, in the shape the model
// checks. Only the fields of the op's class are set.
type reply struct {
	ok       bool // GET/NSGET/GETTTL: found; PUT/NSPUT/PUTTTL: inserted; DELETE: deleted
	val, exp int64
	n        int // PUTBATCH: keys newly inserted
	vals     []int64
	oks      []bool
	items    []rangeItem
	more     bool
}

// wrec is one write as the model logged it: the state the key holds
// after it, and when its acknowledgement arrived (math.MaxInt64 for a
// write in flight when the server was killed).
type wrec struct {
	sp  *space
	idx int
	st  keyState
	ack int64 // ns since the run's clock base
}

// model checks one worker's replies against the exact state of the
// keys it owns, and logs its writes for the durability check.
type model struct {
	log []wrec
}

// ttlWindow classifies a TTL'd key at a read whose server-side time
// lies within [sendUnix, replyUnix]: must it be live, must it be gone,
// or may it be either because the read fell within ttlSlack of expiry.
func ttlWindow(st keyState, sendUnix, replyUnix float64) (mustLive, mustDead bool) {
	if !st.live {
		return false, true
	}
	if st.exp == 0 {
		return true, false
	}
	e := float64(st.exp)
	return replyUnix < e-ttlSlack, sendUnix > e+ttlSlack
}

// check verifies r as the reply to o and advances the model. sendUnix
// and replyUnix bracket the request in unix seconds (for expiry);
// ackNs stamps logged writes.
func (m *model) check(o op, r reply, sendUnix, replyUnix float64, ackNs int64) error {
	s := o.sp
	switch o.class {
	case cGet, cNSGet:
		return checkRead(s, o.idx, r.ok, r.val, 0, false, sendUnix, replyUnix)
	case cGetTTL:
		return checkRead(s, o.idx, r.ok, r.val, r.exp, true, sendUnix, replyUnix)
	case cGetBatch:
		if len(r.vals) != batchKeys || len(r.oks) != batchKeys {
			return fmt.Errorf("getbatch: %d values, %d flags, want %d", len(r.vals), len(r.oks), batchKeys)
		}
		for j := 0; j < batchKeys; j++ {
			if err := checkRead(s, o.idx+j, r.oks[j], r.vals[j], 0, false, sendUnix, replyUnix); err != nil {
				return fmt.Errorf("getbatch: %w", err)
			}
		}
		return nil
	case cRange:
		want := rangeExpect(s, o.idx, rangeItems)
		if len(r.items) != len(want) {
			return fmt.Errorf("range from key %d: %d items, want %d", s.key(o.idx), len(r.items), len(want))
		}
		for j := range want {
			if r.items[j] != want[j] {
				return fmt.Errorf("range from key %d: item %d is %d=%d, want %d=%d",
					s.key(o.idx), j, r.items[j].key, r.items[j].val, want[j].key, want[j].val)
			}
		}
		if len(want) < rangeItems && r.more {
			return fmt.Errorf("range from key %d: more set after %d items", s.key(o.idx), len(want))
		}
		return nil
	case cPut, cNSPut, cPutTTL:
		st := s.state(o.idx)
		mustLive, mustDead := ttlWindow(*st, sendUnix, replyUnix)
		if (mustLive && r.ok) || (mustDead && !r.ok) {
			return fmt.Errorf("%s key %d: inserted=%v, want %v", o.class, s.key(o.idx), r.ok, !r.ok)
		}
		m.write(s, o.idx, keyState{ver: st.ver + 1, live: true, exp: o.exp}, ackNs)
		return nil
	case cDelete:
		st := s.state(o.idx)
		if r.ok != st.live {
			return fmt.Errorf("delete key %d: deleted=%v, want %v", s.key(o.idx), r.ok, st.live)
		}
		m.write(s, o.idx, keyState{ver: st.ver, live: false}, ackNs)
		return nil
	case cPutBatch:
		want := 0
		for j := 0; j < batchKeys; j++ {
			if !s.state(o.idx + j).live {
				want++
			}
		}
		for j := 0; j < batchKeys; j++ {
			st := s.state(o.idx + j)
			m.write(s, o.idx+j, keyState{ver: st.ver + 1, live: true}, ackNs)
		}
		if r.n != want {
			return fmt.Errorf("putbatch at key %d: %d inserted, want %d", s.key(o.idx), r.n, want)
		}
		return nil
	}
	return fmt.Errorf("unknown op class %d", o.class)
}

// inDoubt logs the writes of o, which was in flight when the server
// was killed, as acknowledged after every CHECKPOINT: a restart may show
// each key's old state or its new one.
func (m *model) inDoubt(o op) {
	n := int(max(o.keysWritten(), 1))
	for j := 0; j < n; j++ {
		st := *o.sp.state(o.idx + j)
		if o.class == cDelete {
			st.live = false
		} else {
			st = keyState{ver: st.ver + 1, live: true, exp: o.exp}
		}
		m.write(o.sp, o.idx+j, st, math.MaxInt64)
	}
}

func (m *model) write(s *space, i int, st keyState, ackNs int64) {
	*s.state(i) = st
	m.log = append(m.log, wrec{sp: s, idx: i, st: st, ack: ackNs})
}

// checkRead verifies one point read of key i of s.
func checkRead(s *space, i int, ok bool, val, exp int64, withExp bool, sendUnix, replyUnix float64) error {
	st := *s.state(i)
	k := s.key(i)
	mustLive, mustDead := ttlWindow(st, sendUnix, replyUnix)
	switch {
	case ok && mustDead:
		return fmt.Errorf("key %d%s: read value %d, want absent", k, nsSuffix(s), val)
	case !ok && mustLive:
		return fmt.Errorf("key %d%s: read absent, want %d", k, nsSuffix(s), valueOf(k, st.ver))
	case ok && val != valueOf(k, st.ver):
		return fmt.Errorf("key %d%s: read value %d, want %d (version %d)", k, nsSuffix(s), val, valueOf(k, st.ver), st.ver)
	case ok && withExp && exp != st.exp:
		return fmt.Errorf("key %d%s: read expiry %d, want %d", k, nsSuffix(s), exp, st.exp)
	}
	return nil
}

func nsSuffix(s *space) string {
	if s.ns == "" {
		return ""
	}
	return " in " + s.ns
}

// durableStates computes, for every key the workers wrote, the states a
// restart may legally show: the state after the last write acknowledged
// before cutNs (when the last acknowledged CHECKPOINT was sent), plus
// the state after every write acknowledged later. A key never written
// may only show its preloaded state.
func durableStates(models []*model, cutNs int64) map[*space]map[int][]keyState {
	out := map[*space]map[int][]keyState{}
	for _, m := range models {
		for _, w := range m.log {
			byIdx := out[w.sp]
			if byIdx == nil {
				byIdx = map[int][]keyState{}
				out[w.sp] = byIdx
			}
			cur, seen := byIdx[w.idx]
			if !seen {
				cur = []keyState{w.sp.initial(w.idx)}
			}
			if w.ack < cutNs {
				// Still before the cut: this write replaces the
				// required state (cur[0]); nothing after the cut has
				// been logged yet for this key, since a key's writes are
				// logged in order by its one owner.
				cur = cur[:1]
				cur[0] = w.st
			} else {
				cur = append(cur, w.st)
			}
			byIdx[w.idx] = cur
		}
	}
	return out
}

// checkRecovered verifies a read-back after a restart against the
// legal states of key i of s. nowUnix is when the read was made.
func checkRecovered(s *space, i int, legal []keyState, ok bool, val int64, nowUnix float64) error {
	if legal == nil {
		legal = []keyState{s.initial(i)}
	}
	k := s.key(i)
	for _, st := range legal {
		mustLive, mustDead := ttlWindow(st, nowUnix, nowUnix)
		if ok && !mustDead && val == valueOf(k, st.ver) {
			return nil
		}
		if !ok && !mustLive {
			return nil
		}
	}
	if ok {
		return fmt.Errorf("after restart key %d%s reads %d, legal states %v", k, nsSuffix(s), val, legal)
	}
	return fmt.Errorf("after restart key %d%s is absent, legal states %v (acknowledged write lost)", k, nsSuffix(s), legal)
}
