package proto

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Ver: Version, Op: OpPing, ID: 0},
		{Ver: Version, Op: OpGet, ID: 1, Payload: AppendKey(nil, -42)},
		{Ver: Version, Op: OpPut, ID: math.MaxUint64, Payload: AppendKeyVal(nil, 7, -7)},
		{Ver: Version, Op: OpError, ID: 3, Payload: AppendError(nil, ErrCodeBusy, "full")},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}

	// Streaming reads.
	r := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Ver != want.Ver || got.Op != want.Op || got.ID != want.ID ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}

	// A reused FrameReader consumes exactly the same boundaries.
	fr := NewFrameReader(bytes.NewReader(wire), 0)
	for i, want := range frames {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("reader frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("reader frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("reader after last frame: %v, want EOF", err)
	}
}

func TestFrameHostile(t *testing.T) {
	// A declared length below the header minimum.
	short := []byte{0, 0, 0, 5, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(short), 0); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("undersized length: %v", err)
	}
	// A declared length over the cap must fail BEFORE the body arrives.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1}
	if _, err := NewFrameReader(bytes.NewReader(huge), 0).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(huge), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length (stream): %v", err)
	}
	// Every truncation of a frame fails as a short read.
	whole := AppendFrame(nil, Frame{Ver: Version, Op: OpPing, ID: 9, Payload: []byte("abc")})
	for cut := 0; cut < len(whole); cut++ {
		if _, err := ReadFrame(bytes.NewReader(whole[:cut]), 0); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: %v, want a short read", cut, err)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	if k, err := DecodeKey(AppendKey(nil, -5)); err != nil || k != -5 {
		t.Fatalf("key: %d %v", k, err)
	}
	if k, v, err := DecodeKeyVal(AppendKeyVal(nil, 1, -2)); err != nil || k != 1 || v != -2 {
		t.Fatalf("keyval: %d %d %v", k, v, err)
	}
	if b, err := DecodeBool(AppendBool(nil, true)); err != nil || !b {
		t.Fatalf("bool: %v %v", b, err)
	}
	if v, err := DecodeU64(AppendU64(nil, 99)); err != nil || v != 99 {
		t.Fatalf("u64: %d %v", v, err)
	}
	if v, err := DecodeU32(AppendU32(nil, 7)); err != nil || v != 7 {
		t.Fatalf("u32: %d %v", v, err)
	}
	if v, ep, ok, err := DecodeFound(AppendFound(nil, true, -9, 5)); err != nil || !ok || v != -9 || ep != 5 {
		t.Fatalf("found: %d %d %v %v", v, ep, ok, err)
	}
	if n, ep, err := DecodeLenReply(AppendLenReply(nil, 42, 6)); err != nil || n != 42 || ep != 6 {
		t.Fatalf("len reply: %d %d %v", n, ep, err)
	}
	hl := Health{ReadOnly: true, Promotions: 2, Epoch: 11, Hash: [32]byte{9, 8, 7}}
	if got, err := DecodeHealth(AppendHealth(nil, hl)); err != nil || got != hl {
		t.Fatalf("health: %+v %v", got, err)
	}

	items := []Item{{Key: 1, Val: 10}, {Key: -2, Val: 20}}
	kind, gotItems, gotKeys, err := DecodeBatch(AppendBatchPut(nil, items))
	if err != nil || kind != BatchPut || gotKeys != nil || len(gotItems) != 2 ||
		gotItems[1] != items[1] {
		t.Fatalf("batch put: %d %v %v %v", kind, gotItems, gotKeys, err)
	}
	keys := []int64{3, -4, 5}
	kind, gotItems, gotKeys, err = DecodeBatch(AppendBatchKeys(nil, BatchDel, keys))
	if err != nil || kind != BatchDel || gotItems != nil || len(gotKeys) != 3 || gotKeys[2] != 5 {
		t.Fatalf("batch del: %d %v %v %v", kind, gotItems, gotKeys, err)
	}

	vals, found, bep, err := DecodeBatchGetReply(AppendBatchGetReply(nil, []int64{7, 0}, []bool{true, false}, 8))
	if err != nil || len(vals) != 2 || vals[0] != 7 || !found[0] || found[1] || bep != 8 {
		t.Fatalf("batch get reply: %v %v %d %v", vals, found, bep, err)
	}

	lo, hi, max, err := DecodeRangeReq(AppendRangeReq(nil, -10, 10, 3))
	if err != nil || lo != -10 || hi != 10 || max != 3 {
		t.Fatalf("range req: %d %d %d %v", lo, hi, max, err)
	}
	gotItems, rep, more, err := DecodeRangeReply(AppendRangeReply(nil, items, true, 9))
	if err != nil || !more || len(gotItems) != 2 || gotItems[0] != items[0] || rep != 9 {
		t.Fatalf("range reply: %v %d %v %v", gotItems, rep, more, err)
	}

	code, msg, err := DecodeError(AppendError(nil, ErrCodeShutdown, "bye"))
	if err != nil || code != ErrCodeShutdown || msg != "bye" {
		t.Fatalf("error: %d %q %v", code, msg, err)
	}

	entries := []ShardHash{{Size: 100, Hash: [32]byte{1}}, {Size: 0, Hash: [32]byte{0xAA}}}
	hseed, gotEntries, err := DecodeShardHashes(AppendShardHashes(nil, 0xdead, entries))
	if err != nil || hseed != 0xdead || len(gotEntries) != 2 ||
		gotEntries[0] != entries[0] || gotEntries[1] != entries[1] {
		t.Fatalf("shard hashes: %x %v %v", hseed, gotEntries, err)
	}
	if _, e0, err := DecodeShardHashes(AppendShardHashes(nil, 1, nil)); err != nil || len(e0) != 0 {
		t.Fatalf("empty shard hashes: %v %v", e0, err)
	}

	sh, h, off, maxLen, ns, err := DecodeSyncReqNS(AppendSyncReq(nil, 9, [32]byte{7, 7}, 1<<40, 512))
	if err != nil || sh != 9 || h != ([32]byte{7, 7}) || off != 1<<40 || maxLen != 512 || ns != "" {
		t.Fatalf("sync req: %d %x %d %d %q %v", sh, h[:2], off, maxLen, ns, err)
	}
	data, more, err := DecodeSyncChunk(AppendSyncChunk(nil, true, []byte("bytes")))
	if err != nil || !more || string(data) != "bytes" {
		t.Fatalf("sync chunk: %q %v %v", data, more, err)
	}
	if data, more, err = DecodeSyncChunk(AppendSyncChunk(nil, false, nil)); err != nil || more || len(data) != 0 {
		t.Fatalf("empty sync chunk: %q %v %v", data, more, err)
	}

	k, v, exp, err := DecodeKeyValExp(AppendKeyValExp(nil, -7, 70, 1_900_000_000))
	if err != nil || k != -7 || v != 70 || exp != 1_900_000_000 {
		t.Fatalf("key-val-exp: %d %d %d %v", k, v, exp, err)
	}
	if ch, exp, err := DecodeTTLAck(AppendTTLAck(nil, true, 123)); err != nil || !ch || exp != 123 {
		t.Fatalf("ttl ack: %v %d %v", ch, exp, err)
	}
	if v, exp, ep, ok, err := DecodeFoundTTL(AppendFoundTTL(nil, true, -3, 456, 4)); err != nil || !ok || v != -3 || exp != 456 || ep != 4 {
		t.Fatalf("found-ttl: %d %d %d %v %v", v, exp, ep, ok, err)
	}
	if v, exp, ep, ok, err := DecodeFoundTTL(AppendFoundTTL(nil, false, 0, 0, 0)); err != nil || ok || v != 0 || exp != 0 || ep != 0 {
		t.Fatalf("absent found-ttl: %d %d %d %v %v", v, exp, ep, ok, err)
	}
}

func TestHostilePayloads(t *testing.T) {
	// A batch count that promises more entries than the payload holds
	// must be rejected before any allocation sized by the count.
	lie := []byte{BatchPut, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	if _, _, _, err := DecodeBatch(lie); err == nil {
		t.Fatal("batch count lie accepted")
	}
	lie = append([]byte{BatchGet, 0, 0, 0, 2}, make([]byte, 8)...) // count 2, one key
	if _, _, _, err := DecodeBatch(lie); err == nil {
		t.Fatal("truncated batch accepted")
	}
	if _, _, _, err := DecodeBatchGetReply(append(make([]byte, 8), 0xFF, 0xFF, 0xFF, 0xFF)); err == nil {
		t.Fatal("batch-get reply count lie accepted")
	}
	if _, _, _, err := DecodeRangeReply(append(make([]byte, 9), 0xFF, 0xFF, 0xFF, 0xFF)); err == nil {
		t.Fatal("range reply count lie accepted")
	}
	if _, _, _, err := DecodeBatch([]byte{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown batch kind accepted")
	}
	// A shard-hash count that promises more entries than the payload
	// holds, or more than the protocol ceiling, must be rejected before
	// any count-sized allocation.
	lie = append(make([]byte, 8), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, _, err := DecodeShardHashes(lie); err == nil {
		t.Fatal("shard-hash count lie accepted")
	}
	overCap := append(make([]byte, 8), 0x00, 0x01, 0x00, 0x00) // 65536 > MaxSyncShards
	overCap = append(overCap, make([]byte, 65536*40)...)
	if _, _, err := DecodeShardHashes(overCap); err == nil {
		t.Fatal("shard-hash count over MaxSyncShards accepted")
	}
	if _, _, _, _, _, err := DecodeSyncReqNS(make([]byte, 47)); err == nil {
		t.Fatal("short sync request accepted")
	}
	if _, _, err := DecodeSyncChunk(nil); err == nil {
		t.Fatal("empty sync chunk accepted")
	}
	if _, _, err := DecodeSyncChunk([]byte{2}); err == nil {
		t.Fatal("bad sync-chunk flag accepted")
	}
	// TTL payloads: wrong sizes and negative epochs are rejected.
	if _, _, _, err := DecodeKeyValExp(make([]byte, 16)); err == nil {
		t.Fatal("short put-ttl request accepted")
	}
	if _, _, _, err := DecodeKeyValExp(AppendKeyValExp(nil, 1, 2, -3)); err == nil {
		t.Fatal("negative expiry accepted")
	}
	if _, _, err := DecodeTTLAck([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad put-ttl reply flag accepted")
	}
	if _, _, err := DecodeTTLAck(AppendTTLAck(nil, true, -1)); err == nil {
		t.Fatal("negative expiry in put-ttl reply accepted")
	}
	if _, _, _, _, err := DecodeFoundTTL(make([]byte, 9)); err == nil {
		t.Fatal("short get-ttl reply accepted")
	}
	if _, _, _, _, err := DecodeFoundTTL(AppendFoundTTL(nil, true, 1, -9, 0)); err == nil {
		t.Fatal("negative expiry in get-ttl reply accepted")
	}
	if _, err := DecodeHealth(make([]byte, 48)); err == nil {
		t.Fatal("short health reply accepted")
	}
	if _, err := DecodeHealth(append([]byte{2}, make([]byte, 48)...)); err == nil {
		t.Fatal("bad health role flag accepted")
	}
}

func TestNames(t *testing.T) {
	if got := OpName(OpCheckpoint); got != "OpCheckpoint" {
		t.Fatalf("OpName: %q", got)
	}
	if got := OpName(0x55); !strings.Contains(got, "0x55") {
		t.Fatalf("OpName unknown: %q", got)
	}
	if got := ErrCodeName(ErrCodeTooLarge); got != "ErrCodeTooLarge" {
		t.Fatalf("ErrCodeName: %q", got)
	}
	e := &RemoteError{Code: ErrCodeBusy, Msg: "connection limit"}
	if !strings.Contains(e.Error(), "ErrCodeBusy") {
		t.Fatalf("RemoteError: %q", e.Error())
	}
}
