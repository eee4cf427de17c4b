package proto

// FuzzDecodeFrame mirrors the repo's image-reader fuzz targets
// (FuzzReadPMA, FuzzReadStore): the frame decoder (FrameReader, via
// ReadFrame) consumes bytes straight off a network socket, so hostile
// input must produce an error — never a panic, and never an allocation
// disproportionate to the input. Whatever decodes successfully must
// re-encode to the exact bytes consumed (the codec is bijective on
// valid frames).

import (
	"bytes"
	"testing"
)

func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid frame per opcode and payload shape, plus the
	// usual truncation and bit flip of each.
	seeds := []Frame{
		{Ver: Version, Op: OpGet, ID: 1, Payload: AppendKey(nil, 42)},
		{Ver: Version, Op: OpPut, ID: 2, Payload: AppendKeyVal(nil, 1, 2)},
		{Ver: Version, Op: OpDel, ID: 3, Payload: AppendKey(nil, -1)},
		{Ver: Version, Op: OpBatch, ID: 4, Payload: AppendBatchPut(nil, []Item{{Key: 1, Val: 2}, {Key: 3, Val: 4}})},
		{Ver: Version, Op: OpBatch, ID: 5, Payload: AppendBatchKeys(nil, BatchGet, []int64{5, 6, 7})},
		{Ver: Version, Op: OpRange, ID: 6, Payload: AppendRangeReq(nil, -100, 100, 10)},
		{Ver: Version, Op: OpLen, ID: 7},
		{Ver: Version, Op: OpCheckpoint, ID: 8},
		{Ver: Version, Op: OpPing, ID: 9, Payload: []byte("ping")},
		{Ver: Version, Op: OpGet | FlagReply, ID: 1, Payload: AppendFound(nil, true, 42, 7)},
		{Ver: Version, Op: OpLen | FlagReply, ID: 7, Payload: AppendLenReply(nil, 1000, 7)},
		{Ver: Version, Op: OpRange | FlagReply, ID: 6, Payload: AppendRangeReply(nil, []Item{{Key: 1, Val: 2}}, false, 7)},
		{Ver: Version, Op: OpBatch | FlagReply, ID: 5, Payload: AppendBatchGetReply(nil, []int64{1}, []bool{true}, 7)},
		{Ver: Version, Op: OpError, ID: 2, Payload: AppendError(nil, ErrCodeBadFrame, "boom")},
		{Ver: Version, Op: OpShardHash, ID: 10},
		{Ver: Version, Op: OpShardHash | FlagReply, ID: 10,
			Payload: AppendShardHashes(nil, 0xfeed, []ShardHash{{Size: 64, Hash: [32]byte{1, 2}}, {Size: 0}})},
		{Ver: Version, Op: OpSync, ID: 11, Payload: AppendSyncReq(nil, 3, [32]byte{9}, 128, 4096)},
		{Ver: Version, Op: OpSync | FlagReply, ID: 11, Payload: AppendSyncChunk(nil, true, []byte("img"))},
		{Ver: Version, Op: OpPutTTL, ID: 12, Payload: AppendKeyValExp(nil, 7, 70, 1_900_000_000)},
		{Ver: Version, Op: OpPutTTL | FlagReply, ID: 12, Payload: AppendTTLAck(nil, true, 1_900_000_000)},
		{Ver: Version, Op: OpGetTTL, ID: 13, Payload: AppendKey(nil, 7)},
		{Ver: Version, Op: OpGetTTL | FlagReply, ID: 13, Payload: AppendFoundTTL(nil, true, 70, 1_900_000_000, 7)},
		{Ver: Version, Op: OpHealth, ID: 14},
		{Ver: Version, Op: OpHealth | FlagReply, ID: 14,
			Payload: AppendHealth(nil, Health{ReadOnly: true, Promotions: 1, Epoch: 9, Hash: [32]byte{3, 1}})},
		{Ver: Version, Op: OpPromote, ID: 15},
		{Ver: Version, Op: OpPromote | FlagReply, ID: 15, Payload: AppendU64(nil, 1)},
		{Ver: Version, Op: OpError, ID: 15, Payload: AppendError(nil, ErrCodeNotReplica, "already primary")},
		{Ver: Version, Op: OpNSPut, ID: 16, Payload: AppendNSKeyValExp(nil, "acme", 7, 70, 1_900_000_000)},
		{Ver: Version, Op: OpNSPut | FlagReply, ID: 16, Payload: AppendTTLAck(nil, true, 1_900_000_000)},
		{Ver: Version, Op: OpNSGet, ID: 17, Payload: AppendNSKey(nil, "acme", 7)},
		{Ver: Version, Op: OpNSGet | FlagReply, ID: 17, Payload: AppendFoundTTL(nil, true, 70, 0, 7)},
		{Ver: Version, Op: OpNSDel, ID: 18, Payload: AppendNSKey(nil, "acme", 7)},
		{Ver: Version, Op: OpDropNS, ID: 19, Payload: AppendNSName(nil, "acme")},
		{Ver: Version, Op: OpListNS, ID: 20},
		{Ver: Version, Op: OpListNS | FlagReply, ID: 20,
			Payload: AppendNSList(nil, 1000, []NSStat{{Name: "acme", Keys: 3}, {Name: "globex", Keys: 9}})},
		{Ver: Version, Op: OpShardHash, ID: 21, Payload: AppendNSName(nil, "acme")},
		{Ver: Version, Op: OpShardHash | FlagReply, ID: 21,
			Payload: AppendShardHashesNS(nil, 0xfeed, []ShardHash{{Size: 64, Hash: [32]byte{1, 2}}}, []string{"acme", "globex"})},
		{Ver: Version, Op: OpSync, ID: 22, Payload: AppendSyncReqNS(nil, 3, [32]byte{9}, 128, 4096, "acme")},
		{Ver: Version, Op: OpError, ID: 16, Payload: AppendError(nil, ErrCodeQuota, "namespace over quota")},

		// Version-4 trace-context extension: present (sampled and not),
		// echoed on a reply, and on an empty payload.
		{Ver: Version, Op: OpPut, ID: 23, Trace: TraceCtx{ID: 0xdead, Span: 0xbeef, Sampled: true},
			Payload: AppendKeyVal(nil, 1, 2)},
		{Ver: Version, Op: OpPut | FlagReply, ID: 23, Trace: TraceCtx{ID: 0xdead, Span: 0xbeef},
			Payload: AppendBool(nil, true)},
		{Ver: Version, Op: OpCheckpoint, ID: 24, Trace: TraceCtx{ID: 1, Sampled: true}},
		// Foreign versions: the reader refuses them after the header.
		{Ver: Version - 1, Op: OpGet, ID: 25, Payload: AppendKey(nil, 42)},
		{Ver: Version - 1, Op: OpGet | FlagReply, ID: 25, Payload: AppendFound(nil, true, 42, 7)},
		{Ver: Version - 1, Op: OpDropNS, ID: 26, Payload: AppendNSName(nil, "acme")},
	}
	for _, fr := range seeds {
		wire := AppendFrame(nil, fr)
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		flipped := append([]byte(nil), wire...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}

	const payloadCap = 1 << 12 // small cap so the fuzzer can exercise ErrFrameTooLarge
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		fr, err := ReadFrame(src, payloadCap)
		if err != nil {
			return // rejection is the expected outcome for hostile bytes
		}
		n := len(data) - src.Len()
		if n < HeaderSize+1 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if fr.Ver != Version {
			t.Fatalf("decoded a version-%d frame", fr.Ver)
		}
		if len(fr.Payload) > payloadCap {
			t.Fatalf("payload %d exceeds cap %d", len(fr.Payload), payloadCap)
		}
		// Re-encoding must reproduce exactly the consumed bytes.
		if back := AppendFrame(nil, fr); !bytes.Equal(back, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got % x\nwant % x", back, data[:n])
		}
		// The typed payload decoders must be panic-free on whatever the
		// frame carried, whether or not it matches the opcode.
		DecodeKey(fr.Payload)
		DecodeKeyVal(fr.Payload)
		DecodeBool(fr.Payload)
		DecodeU32(fr.Payload)
		DecodeU64(fr.Payload)
		DecodeFound(fr.Payload)
		DecodeBatch(fr.Payload)
		DecodeBatchGetReply(fr.Payload)
		DecodeRangeReq(fr.Payload)
		DecodeRangeReply(fr.Payload)
		DecodeError(fr.Payload)
		if _, entries, err := DecodeShardHashes(fr.Payload); err == nil {
			// The count was validated against the payload length, so a
			// hostile count can never out-allocate its own frame.
			if len(entries)*40+12 != len(fr.Payload) {
				t.Fatalf("shard-hash entries %d disagree with payload %d", len(entries), len(fr.Payload))
			}
		}
		if _, entries, names, err := DecodeShardHashesNS(fr.Payload); err == nil {
			// The bare-form lower bound still holds; names account for the
			// rest of the payload, each at least 3 bytes (count + 2+1 name).
			if len(entries)*40+12 > len(fr.Payload) {
				t.Fatalf("ns shard-hash entries %d disagree with payload %d", len(entries), len(fr.Payload))
			}
			if len(names) > 0 && len(entries)*40+12+4+3*len(names) > len(fr.Payload) {
				t.Fatalf("ns shard-hash names %d disagree with payload %d", len(names), len(fr.Payload))
			}
		}
		DecodeSyncReqNS(fr.Payload)
		DecodeSyncChunk(fr.Payload)
		DecodeKeyValExp(fr.Payload)
		DecodeTTLAck(fr.Payload)
		DecodeFoundTTL(fr.Payload)
		DecodeLenReply(fr.Payload)
		DecodeHealth(fr.Payload)
		DecodeNSKeyValExp(fr.Payload)
		DecodeNSKey(fr.Payload)
		DecodeNSName(fr.Payload)
		if _, entries, err := DecodeNSList(fr.Payload); err == nil {
			// Each entry costs at least 11 payload bytes (2+1 name + 8
			// count), so the decoded list is bounded by its own frame.
			if 12+11*len(entries) > len(fr.Payload) {
				t.Fatalf("ns-list entries %d disagree with payload %d", len(entries), len(fr.Payload))
			}
		}

		// A reused reader must agree — and its buffer reuse
		// must never corrupt a frame that was fully consumed (copied)
		// before the next Next call. Feeding the same frame twice through
		// one reader is exactly the reuse path: the second decode
		// overwrites the first's payload in place.
		rd := NewFrameReader(bytes.NewReader(append(append([]byte(nil), data[:n]...), data[:n]...)), payloadCap)
		pf1, perr := rd.Next()
		if perr != nil {
			t.Fatalf("ReadFrame ok but a reused FrameReader failed: %v", perr)
		}
		if pf1.Op != fr.Op || pf1.ID != fr.ID || pf1.Trace != fr.Trace || !bytes.Equal(pf1.Payload, fr.Payload) {
			t.Fatalf("reused/fresh reader disagree: %+v vs %+v", pf1, fr)
		}
		saved := append([]byte(nil), pf1.Payload...)
		pf2, perr := rd.Next()
		if perr != nil {
			t.Fatalf("second pooled read failed: %v", perr)
		}
		if !bytes.Equal(pf2.Payload, saved) {
			t.Fatalf("pooled re-read disagrees: % x vs % x", pf2.Payload, saved)
		}
		if !bytes.Equal(saved, fr.Payload) {
			t.Fatalf("copied payload corrupted by buffer reuse: % x vs % x", saved, fr.Payload)
		}
	})
}

// TestNSCodecRoundTrip exercises every namespace codec through an
// encode/decode cycle, including boundary-length names.
func TestNSCodecRoundTrip(t *testing.T) {
	long := string(bytes.Repeat([]byte("n"), MaxNSName))
	for _, ns := range []string{"a", "acme-corp", long} {
		if got, key, val, exp, err := DecodeNSKeyValExp(AppendNSKeyValExp(nil, ns, -5, 7, 99)); err != nil ||
			got != ns || key != -5 || val != 7 || exp != 99 {
			t.Fatalf("ns-put round trip for %q: %q %d %d %d %v", ns, got, key, val, exp, err)
		}
		if got, key, err := DecodeNSKey(AppendNSKey(nil, ns, -5)); err != nil || got != ns || key != -5 {
			t.Fatalf("ns-key round trip for %q: %q %d %v", ns, got, key, err)
		}
		if got, err := DecodeNSName(AppendNSName(nil, ns)); err != nil || got != ns {
			t.Fatalf("ns-name round trip for %q: %q %v", ns, got, err)
		}
	}
	in := []NSStat{{Name: "acme", Keys: 3}, {Name: "globex", Keys: 1 << 40}}
	quota, out, err := DecodeNSList(AppendNSList(nil, 17, in))
	if err != nil || quota != 17 || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("ns-list round trip: %d %v %v", quota, out, err)
	}
	hseed, entries, names, err := DecodeShardHashesNS(
		AppendShardHashesNS(nil, 42, []ShardHash{{Size: 9, Hash: [32]byte{5}}}, []string{"acme", "globex"}))
	if err != nil || hseed != 42 || len(entries) != 1 || len(names) != 2 || names[1] != "globex" {
		t.Fatalf("ns shard-hash round trip: %d %v %v %v", hseed, entries, names, err)
	}
	// The bare form must keep decoding with names == nil.
	_, _, names, err = DecodeShardHashesNS(AppendShardHashes(nil, 42, []ShardHash{{Size: 9}}))
	if err != nil || names != nil {
		t.Fatalf("bare shard-hash decodes names=%v err=%v", names, err)
	}
	sh, hash, off, ml, ns, err := DecodeSyncReqNS(AppendSyncReqNS(nil, 3, [32]byte{7}, 64, 512, "acme"))
	if err != nil || sh != 3 || hash != ([32]byte{7}) || off != 64 || ml != 512 || ns != "acme" {
		t.Fatalf("ns sync-req round trip: %d %v %d %d %q %v", sh, hash, off, ml, ns, err)
	}
	if _, _, _, _, ns, err = DecodeSyncReqNS(AppendSyncReq(nil, 3, [32]byte{7}, 64, 512)); err != nil || ns != "" {
		t.Fatalf("bare sync-req decodes ns=%q err=%v", ns, err)
	}
}

// TestNSCodecCountValidation drives each namespace decoder with hostile
// counts and lengths: every rejection must come back as an error before
// any allocation proportional to the claimed count.
func TestNSCodecCountValidation(t *testing.T) {
	if _, err := DecodeNSName(AppendNSName(nil, "")); err == nil {
		t.Error("zero-length namespace name accepted")
	}
	over := string(bytes.Repeat([]byte("x"), MaxNSName+1))
	if _, err := DecodeNSName(AppendNSName(nil, over)); err == nil {
		t.Error("over-length namespace name accepted")
	}
	if _, err := DecodeNSName(append(AppendNSName(nil, "acme"), 0xff)); err == nil {
		t.Error("trailing bytes after namespace name accepted")
	}
	// A name-length prefix pointing past the payload.
	if _, _, err := DecodeNSKey([]byte{0x00, 0x20, 'a', 'b'}); err == nil {
		t.Error("truncated namespace name accepted")
	}
	// ns-list with a count far beyond the payload.
	hostile := AppendU64(nil, 0)
	hostile = AppendU32(hostile, 1<<31)
	if _, _, err := DecodeNSList(hostile); err == nil {
		t.Error("ns-list with hostile count accepted")
	}
	// ns-list whose count field overruns its actual entries.
	short := AppendNSList(nil, 0, []NSStat{{Name: "acme", Keys: 1}})
	short[11] = 2 // count says two entries, payload holds one
	if _, _, err := DecodeNSList(short); err == nil {
		t.Error("ns-list with short payload accepted")
	}
	// shard-hash namespace table with a hostile count.
	withTable := AppendShardHashes(nil, 1, nil)
	withTable = AppendU32(withTable, 1<<30)
	if _, _, _, err := DecodeShardHashesNS(withTable); err == nil {
		t.Error("shard-hash namespace table with hostile count accepted")
	}
	// sync request with garbage after the name.
	bad := append(AppendSyncReqNS(nil, 0, [32]byte{}, 0, 0, "acme"), 0x01)
	if _, _, _, _, _, err := DecodeSyncReqNS(bad); err == nil {
		t.Error("sync request with trailing bytes accepted")
	}
}
