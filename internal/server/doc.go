// Package server implements hidbd, the network front-end over the
// durable history-independent database (repro/internal/durable). It
// speaks the length-prefixed binary protocol of repro/internal/proto
// over TCP (or any net.Conn via ServeConn — the tests drive it over
// net.Pipe).
//
// # Connection model
//
// Each connection gets two goroutines: a reader that decodes frames and
// serves them, and a writer that takes whatever replies have queued up
// and writes them with one syscall — so a burst of pipelined replies
// costs one write, not one per reply. Replies carry the request id of
// the frame they answer and may be written out of request order.
//
// # Request path
//
// Every opcode is a row of one table (opTable): its class — inline
// read, coalesced write, barrier, or admin — and its decode, exec, and
// encode steps. One wrapper (conn.serve) does what every request
// repeats: the read-only refusal, decode-error replies, phase
// timestamps, the program-order wait, and the reply. Every reply,
// inline or coalesced, success or error, then runs through one finish
// routine (Server.finish) for the opcode histogram, the span tree, and
// the slow-op record. The request's identity and timing travel as an
// explicit request value, never as per-connection state.
//
// # Write coalescing
//
// Reads (GET, BATCH-get, RANGE, LEN, ...) execute inline on the reader
// goroutine — they take one shard read-lock and return. Writes (PUT,
// PUTTTL, DEL and the namespaced writes) are handed to a server-wide
// batcher: a single goroutine that drains every connection's pending
// writes into one shard.Op slice and applies it with DB.ApplyBatch,
// taking each shard's write lock once per drain instead of once per
// operation. The batch preserves each connection's submission order,
// and per-op outcome flags route each reply back to its connection.
// Under concurrent load the batcher turns k lock acquisitions into at
// most min(k, shards) — the same trick PutBatch plays for one caller,
// applied across callers.
//
// # Ordering
//
// Effects on one connection follow program order: before executing a
// read or a checkpoint, the reader waits for that connection's in-flight
// writes to be applied, so a pipelined PUT→GET of the same key on one
// connection always reads its own write. No ordering holds across
// connections beyond the linearizability of the store itself.
//
// # Expiry sweeping
//
// PUTTTL writes ride the same coalescer as PUTs; GETTTL reads execute
// inline like GETs. The server additionally runs an epoch-triggered
// sweeper (Config.SweepInterval bounds only its reaction latency): when
// the database clock's epoch advances, it lists the entries already
// dead at the new epoch and submits conditional Expire ops through the
// write coalescer, so physical removals serialize with the pipelined
// client writes they race — each Expire op re-checks the entry's
// recorded expiry under the shard lock, so a key a client resurrects
// mid-sweep survives. What gets removed is a pure function of
// (contents, epoch), never of the sweeper's schedule; a server whose
// sweeper never fires converges to the same bytes at its next
// checkpoint, which sweeps at its own epoch before rendering.
// Read-only replicas run no sweeper at all.
//
// # Replication
//
// The server is also the serving side of the read-replica protocol:
// SHARDHASH advertises the last committed checkpoint's per-shard
// canonical content hashes, and SYNC ships a shard image (by content
// hash, chunked) out of that checkpoint. With Config.ReadOnly the
// server is itself a replica: mutating requests are refused with
// ErrCodeReadOnly while reads and the sync opcodes keep working, so
// replicas both serve read traffic and feed downstream replicas. See
// repro/internal/replica for the fetching/installing side.
//
// # Limits and shutdown
//
// MaxConns bounds concurrent connections (excess connections receive an
// ErrCodeBusy error frame and are closed). An idle read deadline and a
// per-flush write deadline bound resource capture by dead peers.
// Shutdown stops accepting, unblocks idle readers, drains in-flight
// requests, then commits a final checkpoint so a clean shutdown loses
// nothing. Close is the impolite variant: it severs connections and
// skips the checkpoint, leaving the directory at the last commit —
// exactly the crash the durable layer is built to absorb.
package server
