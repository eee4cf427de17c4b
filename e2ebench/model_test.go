package main

import "testing"

// testSpace is worker 3's default space with keys 0..3 preloaded.
func testSpace() *space {
	s := &space{owner: 3, preN: 4}
	s.state(3)
	return s
}

func TestModelCatchesWrongValue(t *testing.T) {
	s := testSpace()
	var m model
	k1 := s.key(1)
	if k1 != 3<<40|1 {
		t.Fatalf("key(1) = %d, want %d", k1, int64(3<<40|1))
	}
	// PUT key 1 over its preloaded value: version 1, not an insert.
	if err := m.check(op{class: cPut, sp: s, idx: 1}, reply{ok: false}, 10, 10, 5); err != nil {
		t.Fatalf("correct PUT reply rejected: %v", err)
	}
	if err := m.check(op{class: cGet, sp: s, idx: 1}, reply{ok: true, val: valueOf(k1, 1)}, 10, 10, 6); err != nil {
		t.Fatalf("correct GET reply rejected: %v", err)
	}
	// The injected fault: the server answers with the preloaded value.
	err := m.check(op{class: cGet, sp: s, idx: 1}, reply{ok: true, val: valueOf(k1, 0)}, 10, 10, 7)
	want := "key 3298534883329: read value 36466886597911018, want -4431600357688497968 (version 1)"
	if err == nil || err.Error() != want {
		t.Fatalf("stale GET: got error %v, want %q", err, want)
	}
	// A PUT that claims an insert of a key the model holds live.
	err = m.check(op{class: cPut, sp: s, idx: 2}, reply{ok: true}, 10, 10, 8)
	want = "put key 3298534883330: inserted=true, want false"
	if err == nil || err.Error() != want {
		t.Fatalf("wrong insert flag: got error %v, want %q", err, want)
	}
}

func TestModelCatchesWrongRange(t *testing.T) {
	s := testSpace()
	var m model
	if err := m.check(op{class: cDelete, sp: s, idx: 1}, reply{ok: true}, 10, 10, 1); err != nil {
		t.Fatalf("correct DELETE reply rejected: %v", err)
	}
	good := []rangeItem{{s.key(0), valueOf(s.key(0), 0)}, {s.key(2), valueOf(s.key(2), 0)}, {s.key(3), valueOf(s.key(3), 0)}}
	if err := m.check(op{class: cRange, sp: s, idx: 0}, reply{items: good}, 10, 10, 2); err != nil {
		t.Fatalf("correct RANGE reply rejected: %v", err)
	}
	// The deleted key comes back in the range.
	bad := []rangeItem{good[0], {s.key(1), valueOf(s.key(1), 0)}, good[1], good[2]}
	err := m.check(op{class: cRange, sp: s, idx: 0}, reply{items: bad}, 10, 10, 3)
	want := "range from key 3298534883328: 4 items, want 3"
	if err == nil || err.Error() != want {
		t.Fatalf("resurrected key in RANGE: got error %v, want %q", err, want)
	}
}

func TestTTLReadWindow(t *testing.T) {
	s := &space{owner: 1, region: 1}
	s.state(0)
	var m model
	const exp = 1000
	if err := m.check(op{class: cPutTTL, sp: s, idx: 0, exp: exp}, reply{ok: true}, 990, 990, 1); err != nil {
		t.Fatalf("PUTTTL of a fresh key rejected: %v", err)
	}
	k := s.key(0)
	for _, tc := range []struct {
		name       string
		ok         bool
		send, recv float64
		want       string // "" = accepted
	}{
		{"live well before expiry", true, 997, 997.5, ""},
		{"missing well before expiry", false, 997, 998.5, "key 1103806595072: read absent, want 1188433039290085896"},
		{"missing within a second of expiry", false, 999.2, 999.3, ""},
		{"live within a second after expiry", true, 1000.5, 1000.6, ""},
		{"live well after expiry", true, 1001.5, 1001.6, "key 1103806595072: read value 1188433039290085896, want absent"},
		{"missing after expiry", false, 1003, 1003, ""},
	} {
		r := reply{ok: tc.ok, exp: exp}
		if tc.ok {
			r.val = valueOf(k, 1)
		}
		err := m.check(op{class: cGetTTL, sp: s, idx: 0}, r, tc.send, tc.recv, 2)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestDurabilityCatchesLostWrite(t *testing.T) {
	s := testSpace()
	var m model
	// Key 0: written at t=5, before the cut at t=10: must survive.
	// Key 1: written at t=5 and again at t=15, after the cut: either.
	// Key 2: deleted at t=6: must stay deleted.
	for _, w := range []struct {
		class opClass
		idx   int
		ok    bool
		ack   int64
	}{{cPut, 0, false, 5}, {cPut, 1, false, 5}, {cDelete, 2, true, 6}, {cPut, 1, false, 15}} {
		if err := m.check(op{class: w.class, sp: s, idx: w.idx}, reply{ok: w.ok}, 1, 1, w.ack); err != nil {
			t.Fatalf("write %+v rejected: %v", w, err)
		}
	}
	legal := durableStates([]*model{&m}, 10)
	if got, want := len(legal[s][1]), 2; got != want {
		t.Fatalf("key 1 has %d legal states, want %d", got, want)
	}
	for _, tc := range []struct {
		name string
		idx  int
		ok   bool
		ver  uint32
		want string
	}{
		{"write before the cut survives", 0, true, 1, ""},
		{"write before the cut lost", 0, true, 0, "after restart key 3298534883328 reads -2756991425214113527, legal states [{1 true 0}]"},
		{"last write before the cut on a key written again later", 1, true, 1, ""},
		{"write after the cut survives", 1, true, 2, ""},
		{"key 1 regresses past the cut", 1, true, 0, "after restart key 3298534883329 reads 36466886597911018, legal states [{1 true 0} {2 true 0}]"},
		{"delete before the cut holds", 2, false, 0, ""},
		{"deleted key resurrected", 2, true, 0, "after restart key 3298534883330 reads -2782478132781691990, legal states [{0 false 0}]"},
		{"untouched preloaded key lost", 3, false, 0, "after restart key 3298534883331 is absent, legal states [{0 true 0}] (acknowledged write lost)"},
	} {
		var val int64
		if tc.ok {
			val = valueOf(s.key(tc.idx), tc.ver)
		}
		err := checkRecovered(s, tc.idx, legal[s][tc.idx], tc.ok, val, 20)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestReplayStreamRepeats(t *testing.T) {
	sp, err := specByName("mixed_ops")
	if err != nil {
		t.Fatal(err)
	}
	pre1, ops1 := replayStream(sp, 7)
	pre2, ops2 := replayStream(sp, 7)
	if len(pre1) != 360000 || len(pre2) != len(pre1) || len(ops1) != replayOps || len(ops2) != replayOps {
		t.Fatalf("stream sizes %d/%d preloaded, %d/%d ops; want 360000 and %d", len(pre1), len(pre2), len(ops1), len(ops2), replayOps)
	}
	for i := range ops1 {
		a, b := ops1[i], ops2[i]
		if a.class != b.class || a.keys[0] != b.keys[0] || len(a.keys) != len(b.keys) {
			t.Fatalf("op %d differs between two streams of one seed: %+v vs %+v", i, a, b)
		}
	}
}
