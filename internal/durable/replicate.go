package durable

// Replication surface: export the committed checkpoint as per-shard
// canonical images, and install a checkpoint shipped from elsewhere.
//
// Because every shard image is a pure function of (contents, seed),
// replication needs no operation log — an oplog would be an operation
// history, the exact artifact this system keeps off the disk. A replica
// compares content hashes, fetches only divergent images, and installs
// them through the same atomic commit sequence checkpoints use. After a
// successful install the replica's directory is byte-identical to the
// primary's checkpoint: same manifest bytes, same content-addressed
// file names, same image bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/namespace"
	"repro/internal/shard"
)

// ErrStaleShard is returned by ShardImage when the requested hash is no
// longer the committed image for that shard — a newer checkpoint
// superseded it between the caller's hash fetch and the image fetch.
// The caller should re-fetch the hashes and retry.
var ErrStaleShard = errors.New("durable: shard image superseded by a newer checkpoint")

// ShardHash describes one shard's committed canonical image.
type ShardHash struct {
	Size int64
	Hash [32]byte
}

// ShardHashes returns the routing seed and per-shard canonical image
// hashes of the last committed checkpoint. Two databases with equal
// contents and equal seeds return equal hashes for every shard — the
// comparison a replica's anti-entropy round starts with.
func (db *DB) ShardHashes() (hseed uint64, entries []ShardHash, err error) {
	return db.committedHashes("")
}

// ShardImage returns the committed canonical image of shard i, which
// must still be the checkpointed one: a hash that is no longer current
// fails with ErrStaleShard (re-fetch ShardHashes and retry). The bytes
// are verified against the manifest hash before they are returned, so a
// corrupted file cannot propagate.
func (db *DB) ShardImage(i int, hash [32]byte) ([]byte, error) {
	return db.committedImage("", i, hash)
}

// InstallCheckpoint replaces the database's entire state — in memory
// and on disk — with the checkpoint described by hseed and one
// canonical image per shard (len(images) must be a power of two >= 1).
// The images are verified (per-image checksums, structural and routing
// invariants) by assembling the new store BEFORE anything touches the
// directory; publication then follows the standard atomic commit
// sequence (content-addressed image files → dir fsync → manifest swap →
// dir fsync), so a crash at any step recovers to either the old or the
// new checkpoint, never a mix. Images whose bytes are already committed
// under the same hash are not rewritten.
//
// This is the read-replica install path. It assumes no concurrent local
// writers: operations applied between the images' capture and the
// install are silently superseded (that is the semantics of replacing
// state). Concurrent readers are safe — they keep the store snapshot
// they loaded until the swap publishes the new one.
//
// The whole store is re-assembled even when only a few shards changed.
// That costs O(total contents) per install, but it is what makes every
// install a CONSISTENT cut: swapping dictionaries into the live store
// shard by shard would let a concurrent cross-shard read (Range, Len)
// observe half of one checkpoint and half of another. Replicas that
// need cheaper installs should shard more finely, not trade away the
// snapshot.
func (db *DB) InstallCheckpoint(hseed uint64, images [][]byte) error {
	return db.InstallCheckpointNS(hseed, images, nil)
}

// NSImages is one tenant's canonical image set, shipped alongside the
// default shards by InstallCheckpointNS.
type NSImages struct {
	Name   string
	Images [][]byte
}

// InstallCheckpointNS is InstallCheckpoint for a multi-tenant
// checkpoint: the default keyspace's images plus one image set per
// committed namespace. Tenants absent from nss are dropped — the
// installed manifest omits them and the sweep wipes their files, so a
// replica tracks the primary's tenant erasures byte for byte. Every
// tenant store is assembled and verified before anything touches the
// directory, and each must sit at the routing seed derived from
// (hseed, name) — an image set filed under the wrong tenant fails
// assembly rather than installing.
func (db *DB) InstallCheckpointNS(hseed uint64, images [][]byte, nss []NSImages) error {
	if db.closed.Load() {
		return ErrClosed
	}
	s, err := db.assemble(hseed, images, db.opts.Seed)
	if err != nil {
		return fmt.Errorf("durable: installing checkpoint: %w", err)
	}
	nss = slices.Clone(nss)
	slices.SortFunc(nss, func(a, b NSImages) int { return strings.Compare(a.Name, b.Name) })
	cells := make([]*namespace.Cell, len(nss))
	for k, n := range nss {
		if err := namespace.ValidateName(n.Name); err != nil {
			return fmt.Errorf("durable: installing checkpoint: %w", err)
		}
		if k > 0 && nss[k-1].Name == n.Name {
			return fmt.Errorf("durable: installing checkpoint: duplicate namespace %q", n.Name)
		}
		seed := namespace.DeriveSeed(hseed, n.Name)
		st, err := db.assemble(shard.MixSeed(seed), n.Images, seed)
		if err != nil {
			return fmt.Errorf("durable: installing namespace %q: %w", n.Name, err)
		}
		cells[k] = &namespace.Cell{Name: n.Name, Seed: seed, Store: st}
	}

	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	// Committed files are reusable only under the same routing seed:
	// a tenant's file names carry its derived seed, and an image's bytes
	// alone (an empty shard's, say) need not.
	old := db.man
	if old != nil && old.hseed != hseed {
		old = nil
	}
	newMan := &manifest{hseed: hseed}
	var writes []pendingShard
	newMan.shards, writes = stage(setOf(hseed, ""), images, old.entries(""), writes)
	for _, n := range nss {
		ent := nsEntry{name: n.Name}
		ent.shards, writes = stage(setOf(hseed, n.Name), n.Images, old.entries(n.Name), writes)
		newMan.nss = append(newMan.nss, ent)
	}
	if db.man != nil && manifestsEqual(db.man, newMan) {
		// Already exactly this checkpoint; installing again would change
		// no byte on disk. Leave the live store untouched too.
		return nil
	}
	if _, _, err := db.commit(writes, newMan); err != nil {
		return err
	}

	// Committed: publish the new state to readers and reset the
	// checkpoint bookkeeping to "clean at exactly this image set".
	db.store.Store(s)
	db.cpVersions = versionsOf(s)
	for _, c := range cells {
		c.Committed = true // its entry is in the manifest just published
		c.CPVersions = versionsOf(c.Store)
	}
	db.nss.ReplaceAll(cells)
	db.dirtyOps.Store(0)
	db.checkpoints.Add(1)
	db.sweep()
	return nil
}

// manifestsEqual reports whether two manifests describe the same
// checkpoint. The encoding is canonical, so equal bytes are exactly
// equal seeds, sizes, hashes and namespace tables.
func manifestsEqual(a, b *manifest) bool {
	return bytes.Equal(a.encode(), b.encode())
}
