// Package proto defines hidbd's wire protocol: a length-prefixed
// binary framing with per-request ids, the opcode and error-code
// tables, and the payload codecs shared by the server
// (repro/internal/server) and the client (repro/client).
//
// Every message — request or reply — is one frame:
//
//	u32 BE  length   byte count of the rest of the frame (11 + ext + payload)
//	u8      version  protocol version, always Version (4)
//	u8      opcode   request opcode, reply (opcode|FlagReply), or OpError
//	u64 BE  id       request id, echoed verbatim in the reply
//	u8      extlen   0, or TraceExtLen when a trace context follows
//	...     ext      trace id(8), parent span id(8), flags(1) — optional
//	...     payload  opcode-specific, at most MaxPayload bytes
//
// There is one wire version: a frame carrying any other version byte
// is refused before its body is read. FrameReader is the one decoder;
// ReadFrame reads a single frame through it.
//
// The id makes connections pipelined: a client may have any number of
// requests in flight on one connection, and replies carry the id of the
// request they answer — they are NOT guaranteed to arrive in request
// order (the server answers reads inline and batches writes through a
// coalescer). Per-connection ordering of effects is still program
// order: see docs/PROTOCOL.md for the exact contract.
//
// The decoders treat every input as hostile (a frame arrives off the
// network): they must reject malformed bytes with an error — never
// panic, never allocate memory disproportionate to the input. Counts
// are validated against the actual payload length before any
// allocation. FuzzDecodeFrame holds them to that contract.
package proto
