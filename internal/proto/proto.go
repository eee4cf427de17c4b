package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/hipma"
)

// Item re-exports the store element type: a key with an int64 payload.
// Values are fixed 8-byte integers end to end — that is the data model
// of the paper's structures, not a protocol limitation.
type Item = hipma.Item

// Version is the protocol version spoken by this package, and the only
// one: every frame carries it, and a frame with any other version is
// refused (ErrVersion; a server answers it with ErrCodeVersion and
// closes the connection).
// Version 2 added the HEALTH/PROMOTE opcodes and stamped every read
// reply with the serving node's checkpoint epoch (bounded staleness).
// Version 3 added the namespace opcodes (NSPUT/NSGET/NSDEL/DROPNS/
// LISTNS), per-namespace SHARDHASH/SYNC addressing, and ErrCodeQuota.
// Version 4 added the optional trace-context extension after the
// request id (a header layout change, hence the bump): extlen(1), then
// — when extlen is TraceExtLen — trace id(8), parent span id(8),
// flags(1).
const Version = 4

// HeaderSize is the fixed frame overhead before the extension-length
// byte: the 4-byte length prefix plus version, opcode, and request id.
const HeaderSize = 4 + 1 + 1 + 8

// TraceExtLen is the size of a present trace-context extension: trace
// id(8), parent span id(8), flags(1). A frame's extlen byte is either 0
// or exactly TraceExtLen.
const TraceExtLen = 8 + 8 + 1

// traceFlagSampled marks a head-sampled request; all other flag bits
// are reserved and must be zero.
const traceFlagSampled byte = 1 << 0

// MaxPayload is the default cap on a frame's payload size. Both sides
// enforce a cap before allocating, so a hostile length prefix cannot
// drive a large allocation. Servers may configure a different cap; this
// is the default and the hard ceiling for the stock client.
const MaxPayload = 1 << 20

// Request opcodes. Replies to an opcode op carry op|FlagReply; error
// replies carry OpError regardless of the request opcode.
const (
	OpGet        byte = 0x01 // payload: key(8) → reply: found(1) val(8) epoch(8)
	OpPut        byte = 0x02 // payload: key(8) val(8) → reply: changed(1)
	OpDel        byte = 0x03 // payload: key(8) → reply: changed(1)
	OpBatch      byte = 0x04 // payload: kind(1) count(4) entries → reply: kind-specific
	OpRange      byte = 0x05 // payload: lo(8) hi(8) max(4) → reply: more(1) epoch(8) count(4) pairs
	OpLen        byte = 0x06 // payload: empty → reply: count(8) epoch(8)
	OpCheckpoint byte = 0x07 // payload: empty → reply: checkpoints(8)
	OpPing       byte = 0x08 // payload: arbitrary → reply: the same bytes

	// Replication opcodes. A replica compares the primary's last
	// committed checkpoint against its own — per-shard canonical content
	// hashes, never an operation log — and ships only divergent shard
	// images. See docs/PROTOCOL.md "Replication".
	OpShardHash byte = 0x09 // payload: empty → reply: hseed(8) count(4) [size(8) hash(32)]…
	OpSync      byte = 0x0A // payload: shard(4) hash(32) offset(8) maxlen(4) → reply: more(1) bytes

	// TTL opcodes. The expiry is an ABSOLUTE epoch in unix seconds
	// (0: never expires), recorded as part of the entry's logical state
	// and echoed back; the server never stores "when the request
	// arrived" — relative TTLs are resolved by the client, so the wire
	// carries only state, never timing. See docs/PROTOCOL.md "Expiry".
	OpPutTTL byte = 0x0B // payload: key(8) val(8) exp(8) → reply: changed(1) exp(8)
	OpGetTTL byte = 0x0C // payload: key(8) → reply: found(1) val(8) exp(8) epoch(8)

	// HA opcodes. HEALTH reports the node's role and checkpoint position
	// (a liveness probe that never queues behind writes); PROMOTE lifts a
	// read replica into a writable primary and returns the node's
	// promotion epoch. Promotion state is wire- and memory-only — it is
	// never persisted, so on-disk state stays a pure function of
	// contents. See docs/PROTOCOL.md "Failover".
	OpHealth  byte = 0x0D // payload: empty → reply: role(1) promotions(8) epoch(8) manifest-hash(32)
	OpPromote byte = 0x0E // payload: empty → reply: promotions(8)

	// Namespace opcodes. Every namespaced payload starts with the tenant
	// name (nslen(2) name); names are 1..MaxNSName bytes, no NUL. DROPNS
	// erases the tenant: the server drops the cell, checkpoints, and
	// sweeps before replying, so a true reply means the tenant's bytes
	// are already gone from the committed directory. LISTNS returns the
	// live tenants in byte-sorted (canonical) order — never creation
	// order. See docs/PROTOCOL.md "Namespaces".
	OpNSPut  byte = 0x0F // payload: nslen(2) ns key(8) val(8) exp(8) → reply: changed(1) exp(8)
	OpNSGet  byte = 0x10 // payload: nslen(2) ns key(8) → reply: found(1) val(8) exp(8) epoch(8)
	OpNSDel  byte = 0x11 // payload: nslen(2) ns key(8) → reply: changed(1)
	OpDropNS byte = 0x12 // payload: nslen(2) ns → reply: existed(1)
	OpListNS byte = 0x13 // payload: empty → reply: quota(8) count(4) [nslen(2) ns keys(8)]…
)

// FlagReply marks a frame as the successful reply to the request opcode
// in its low bits.
const FlagReply byte = 0x80

// OpError is the opcode of an error reply. Its payload is
// code(1) msg(rest); the id names the failed request.
const OpError byte = 0xFF

// Batch kinds, the first payload byte of an OpBatch request.
const (
	BatchPut byte = 0 // entries: key(8) val(8) each → reply: changed(4)
	BatchGet byte = 1 // entries: key(8) each → reply: count(4), found(1) val(8) each
	BatchDel byte = 2 // entries: key(8) each → reply: changed(4)
)

// Error codes carried by OpError replies.
const (
	ErrCodeBadFrame  byte = 1 // malformed frame or payload
	ErrCodeVersion   byte = 2 // unsupported protocol version
	ErrCodeUnknownOp byte = 3 // opcode not in the table
	ErrCodeTooLarge  byte = 4 // frame or batch exceeds the server's limits
	ErrCodeBusy      byte = 5 // connection limit reached; retry later
	ErrCodeShutdown  byte = 6 // server is draining; connection will close
	ErrCodeInternal  byte = 7 // server-side failure (e.g. checkpoint error)
	ErrCodeReadOnly  byte = 8 // server is a read replica; writes go to the primary
	ErrCodeStale     byte = 9 // requested shard image superseded; re-fetch SHARDHASH

	ErrCodeNotReplica byte = 10 // PROMOTE sent to a node that is already writable

	ErrCodeQuota byte = 11 // namespace is at its per-tenant key quota
)

// opNames is the authoritative opcode table; docs/PROTOCOL.md mirrors
// it and TestProtocolDocLockstep keeps the two in sync.
var opNames = map[byte]string{
	OpGet:        "OpGet",
	OpPut:        "OpPut",
	OpDel:        "OpDel",
	OpBatch:      "OpBatch",
	OpRange:      "OpRange",
	OpLen:        "OpLen",
	OpCheckpoint: "OpCheckpoint",
	OpPing:       "OpPing",
	OpShardHash:  "OpShardHash",
	OpSync:       "OpSync",
	OpPutTTL:     "OpPutTTL",
	OpGetTTL:     "OpGetTTL",
	OpHealth:     "OpHealth",
	OpPromote:    "OpPromote",
	OpNSPut:      "OpNSPut",
	OpNSGet:      "OpNSGet",
	OpNSDel:      "OpNSDel",
	OpDropNS:     "OpDropNS",
	OpListNS:     "OpListNS",
	OpError:      "OpError",
}

// errNames is the authoritative error-code table, mirrored by
// docs/PROTOCOL.md under the same lockstep test.
var errNames = map[byte]string{
	ErrCodeBadFrame:   "ErrCodeBadFrame",
	ErrCodeVersion:    "ErrCodeVersion",
	ErrCodeUnknownOp:  "ErrCodeUnknownOp",
	ErrCodeTooLarge:   "ErrCodeTooLarge",
	ErrCodeBusy:       "ErrCodeBusy",
	ErrCodeShutdown:   "ErrCodeShutdown",
	ErrCodeInternal:   "ErrCodeInternal",
	ErrCodeReadOnly:   "ErrCodeReadOnly",
	ErrCodeStale:      "ErrCodeStale",
	ErrCodeNotReplica: "ErrCodeNotReplica",
	ErrCodeQuota:      "ErrCodeQuota",
}

// OpName returns the symbolic name of an opcode ("OpGet"), or a hex
// rendering for opcodes outside the table.
func OpName(op byte) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("Op(0x%02x)", op)
}

// ErrCodeName returns the symbolic name of an error code
// ("ErrCodeBusy"), or a hex rendering for codes outside the table.
func ErrCodeName(code byte) string {
	if n, ok := errNames[code]; ok {
		return n
	}
	return fmt.Sprintf("ErrCode(0x%02x)", code)
}

// TraceCtx is the optional trace-context extension: the
// request's trace id, the sender's span id (the parent of whatever
// span the receiver opens), and the head-sample decision. A zero ID
// means "no context" — frames encode the extension only when ID is
// nonzero, and decoders reject a present extension with a zero id so
// encode∘decode is the identity on bytes. The context carries ids and
// one flag bit only: no payload-capable field, by construction.
type TraceCtx struct {
	ID      uint64 // trace id; 0: no trace context
	Span    uint64 // sender's span id, parent for the receiver's spans
	Sampled bool   // head-sample decision, honored end to end
}

// Frame is one decoded protocol frame.
type Frame struct {
	Ver     byte
	Op      byte
	ID      uint64
	Trace   TraceCtx // zero ID means absent
	Payload []byte
}

// WireSize is the frame's encoded length in bytes, length prefix
// included.
func (f Frame) WireSize() int {
	n := HeaderSize + 1 + len(f.Payload)
	if f.Trace.ID != 0 {
		n += TraceExtLen
	}
	return n
}

// ErrFrameTooLarge is returned when a frame's declared length exceeds
// the decoder's payload cap.
var ErrFrameTooLarge = errors.New("proto: frame exceeds payload cap")

// ErrVersion is returned for a frame whose version byte is not
// Version. The frame's layout is then unknown, so nothing after its
// header is read: the stream cannot continue.
var ErrVersion = errors.New("proto: unsupported protocol version")

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It does not enforce the payload cap; writers construct their
// own payloads and the cap protects readers. The version byte is
// written as given, so a peer's refusal of a foreign version can be
// exercised.
func AppendFrame(dst []byte, f Frame) []byte {
	ext := 0
	if f.Trace.ID != 0 {
		ext = TraceExtLen
	}
	// The length is WireSize()-4, spelled out: through the method an
	// untraced encode measured about a fifth slower.
	dst = binary.BigEndian.AppendUint32(dst, uint32(HeaderSize-4+1+ext+len(f.Payload)))
	dst = append(dst, f.Ver, f.Op)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = append(dst, byte(ext))
	if ext != 0 {
		dst = binary.BigEndian.AppendUint64(dst, f.Trace.ID)
		dst = binary.BigEndian.AppendUint64(dst, f.Trace.Span)
		var flags byte
		if f.Trace.Sampled {
			flags = traceFlagSampled
		}
		dst = append(dst, flags)
	}
	return append(dst, f.Payload...)
}

// ReadFrame reads exactly one frame from r into a freshly allocated
// payload of at most maxPayload bytes (<=0 means MaxPayload). It is a
// one-frame FrameReader: same validation, never over-reads.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	return NewFrameReader(r, maxPayload).Next()
}

// WriteFrame encodes f and writes it to w in one call.
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, f.WireSize()), f)
	_, err := w.Write(buf)
	return err
}

// FrameReader decodes a stream of frames into one reusable payload
// buffer, so a long-lived connection's read loop allocates nothing at
// steady state. The buffer grows to the largest payload seen and is
// retained, bounded by the reader's payload cap. It is the package's
// only frame decoder; ReadFrame wraps it.
//
// ALIASING CONTRACT: the payload returned by Next aliases the internal
// buffer and is valid only until the next Next call. A caller that
// retains payload bytes past that point (to echo them later, hand them
// to another goroutine, ...) must copy them first. FuzzDecodeFrame and
// TestFrameReaderReuse enforce the decode identity and the reuse
// semantics.
type FrameReader struct {
	r          io.Reader
	buf        []byte
	maxPayload int
	// hdr lives in the struct rather than Next's frame so the interface
	// call to io.ReadFull cannot force a per-frame heap allocation. It
	// is sized for the longest fixed region: header, extension-length
	// byte, and a full trace extension.
	hdr [HeaderSize + 1 + TraceExtLen]byte
}

// NewFrameReader returns a FrameReader over r with the given payload
// cap (<=0 means MaxPayload).
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = MaxPayload
	}
	return &FrameReader{r: r, maxPayload: maxPayload}
}

// Next reads and decodes one frame. It never over-reads (the length
// prefix is validated before the body is read) and never allocates
// beyond the payload cap. Rejections are exact, so that encode∘decode
// is the identity on bytes: the extension length must be 0 or
// TraceExtLen, a present extension must carry a nonzero trace id, and
// reserved flag bits must be zero. A foreign version fails with
// ErrVersion and a frame holding the header's version, opcode and id,
// so the refusal can name the request. The returned payload is valid
// only until the next call — see the aliasing contract above.
func (fr *FrameReader) Next() (Frame, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < HeaderSize-4 {
		return Frame{}, fmt.Errorf("proto: frame length %d below header size", n)
	}
	if n > uint32(HeaderSize-4+1+TraceExtLen+fr.maxPayload) {
		return Frame{}, fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, n, HeaderSize-4+fr.maxPayload)
	}
	// One read covers the id and, when the frame is long enough to hold
	// it, the extension-length byte.
	end := HeaderSize
	if n > HeaderSize-4 {
		end++
	}
	if _, err := io.ReadFull(fr.r, hdr[4:end]); err != nil {
		return Frame{}, fmt.Errorf("proto: reading frame header: %w", err)
	}
	f := Frame{
		Ver: hdr[4],
		Op:  hdr[5],
		ID:  binary.BigEndian.Uint64(hdr[6:]),
	}
	if f.Ver != Version {
		return f, fmt.Errorf("%w %d (this side speaks %d)", ErrVersion, f.Ver, Version)
	}
	if end == HeaderSize {
		return Frame{}, fmt.Errorf("proto: frame missing extension length")
	}
	body := int(n) - (HeaderSize - 4 + 1)
	if ext := int(hdr[HeaderSize]); ext != 0 {
		if ext != TraceExtLen {
			return Frame{}, fmt.Errorf("proto: trace extension length %d, want 0 or %d", ext, TraceExtLen)
		}
		if body < TraceExtLen {
			return Frame{}, fmt.Errorf("proto: frame length too short for trace extension")
		}
		x := hdr[HeaderSize+1 : HeaderSize+1+TraceExtLen]
		if _, err := io.ReadFull(fr.r, x); err != nil {
			return Frame{}, fmt.Errorf("proto: reading trace extension: %w", err)
		}
		f.Trace = TraceCtx{
			ID:      binary.BigEndian.Uint64(x),
			Span:    binary.BigEndian.Uint64(x[8:]),
			Sampled: x[16]&traceFlagSampled != 0,
		}
		if f.Trace.ID == 0 {
			return Frame{}, fmt.Errorf("proto: trace extension with zero trace id")
		}
		if x[16]&^traceFlagSampled != 0 {
			return Frame{}, fmt.Errorf("proto: reserved trace flag bits 0x%02x set", x[16]&^traceFlagSampled)
		}
		body -= TraceExtLen
	}
	if body > fr.maxPayload {
		return Frame{}, fmt.Errorf("%w: %d payload bytes, cap %d", ErrFrameTooLarge, body, fr.maxPayload)
	}
	if body > 0 {
		if cap(fr.buf) < body {
			fr.buf = make([]byte, body)
		}
		fr.buf = fr.buf[:body]
		if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
			return Frame{}, fmt.Errorf("proto: reading frame payload: %w", err)
		}
		f.Payload = fr.buf
	}
	return f, nil
}
