package durable

// Shard sets: the default keyspace and every tenant cell go through the
// same render, publish, load and verify code. A set differs from
// another only in how its files are named (shardSet.file), in its
// version floors (cpVersions or Cell.CPVersions), and in which
// committed entries it may reuse.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/shard"
)

// shard labels shard i in error messages.
func (s shardSet) shard(i int) string {
	if s.ns == "" {
		return fmt.Sprintf("shard %d", i)
	}
	return fmt.Sprintf("namespace %q shard %d", s.ns, i)
}

// committedSet is a shard set with its entries in a manifest.
type committedSet struct {
	shardSet
	entries []shardEntry
}

// sets lists m's shard sets: the default keyspace, then every tenant
// in name order.
func (m *manifest) sets() []committedSet {
	out := make([]committedSet, 0, 1+len(m.nss))
	out = append(out, committedSet{setOf(m.hseed, ""), m.shards})
	for _, e := range m.nss {
		out = append(out, committedSet{setOf(m.hseed, e.name), e.shards})
	}
	return out
}

// entries returns the committed entries of the set named ns ("" for
// the default keyspace), or nil when m is nil or commits no such set.
func (m *manifest) entries(ns string) []shardEntry {
	if m == nil {
		return nil
	}
	if ns == "" {
		return m.shards
	}
	if e := m.nsAt(ns); e != nil {
		return e.shards
	}
	return nil
}

// pendingShard is one shard image staged for publication. For a
// rendered image, floors[idx] advances to version once the manifest
// naming it commits; an installed image has no floors.
type pendingShard struct {
	set     shardSet
	idx     int
	data    []byte
	hash    [32]byte
	floors  []uint64
	version uint64
}

// render stages one shard set for a checkpoint and returns its
// manifest entries. A shard whose version still equals its floor
// reuses its prev entry. Any other shard is rendered once, into a slice
// of exactly its image size, and hashed: if prev already commits those
// bytes only the floor advances, otherwise the image joins writes.
// prev is nil when nothing may be reused — no checkpoint yet, or a
// tenant incarnation that has never committed (a recreated tenant must
// not inherit its dropped predecessor's files).
func render(set shardSet, s *shard.Store, floors []uint64, prev []shardEntry, writes []pendingShard) ([]shardEntry, []pendingShard, error) {
	out := make([]shardEntry, s.NumShards())
	for i := range out {
		reusable := i < len(prev)
		if reusable && s.ShardVersion(i) == floors[i] {
			out[i] = prev[i] // image still current
			continue
		}
		ver, img, err := s.SnapshotShard(i)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: snapshotting %s: %w", set.shard(i), err)
		}
		h := sha256.Sum256(img)
		out[i] = shardEntry{size: int64(len(img)), hash: h}
		if reusable && h == prev[i].hash {
			// Version moved but the canonical bytes did not (e.g. an
			// insert undone by a delete): the committed file is already
			// exact, so just advance the version floor.
			floors[i] = ver
			continue
		}
		writes = append(writes, pendingShard{set: set, idx: i, data: img, hash: h, floors: floors, version: ver})
	}
	return out, writes, nil
}

// stage stages one shipped shard set for an install and returns its
// manifest entries; an image whose file prev already commits is not
// rewritten.
func stage(set shardSet, images [][]byte, prev []shardEntry, writes []pendingShard) ([]shardEntry, []pendingShard) {
	out := make([]shardEntry, len(images))
	for i, img := range images {
		h := sha256.Sum256(img)
		out[i] = shardEntry{size: int64(len(img)), hash: h}
		if i < len(prev) && prev[i].hash == h {
			continue // committed file already has these exact bytes
		}
		writes = append(writes, pendingShard{set: set, idx: i, data: img, hash: h})
	}
	return out, writes
}

// commit runs the atomic commit sequence. The staged images are
// published under content-addressed names the old manifest does not
// reference, so they stay invisible to recovery until the manifest
// swap — the single commit point. On success man is the committed
// manifest and every rendered image's floor has advanced. It returns
// the bytes written, manifest included, and the manifest's encoding.
func (db *DB) commit(writes []pendingShard, man *manifest) (int, []byte, error) {
	n := 0
	for _, p := range writes {
		if err := db.writeFileAtomic(p.set.file(p.idx, p.hash), p.data); err != nil {
			return 0, nil, fmt.Errorf("durable: publishing %s image: %w", p.set.shard(p.idx), err)
		}
		n += len(p.data)
	}
	if err := db.fs.SyncDir(db.dir); err != nil {
		return 0, nil, fmt.Errorf("durable: syncing %s: %w", db.dir, err)
	}
	enc := man.encode()
	if err := db.writeFileAtomic(manifestName, enc); err != nil {
		return 0, nil, fmt.Errorf("durable: publishing manifest: %w", err)
	}
	if err := db.fs.SyncDir(db.dir); err != nil {
		return 0, nil, fmt.Errorf("durable: syncing %s after manifest swap: %w", db.dir, err)
	}
	db.man = man
	for _, p := range writes {
		if p.floors != nil {
			p.floors[p.idx] = p.version
		}
	}
	return n + len(enc), enc, nil
}

// readImage reads shard i's committed image file and verifies its size
// and SHA-256 against the manifest entry e.
func (db *DB) readImage(set shardSet, i int, e shardEntry) ([]byte, error) {
	img, err := db.readFile(set.file(i, e.hash))
	if err != nil {
		return nil, fmt.Errorf("durable: %s image: %w", set.shard(i), err)
	}
	if int64(len(img)) != e.size {
		return nil, fmt.Errorf("durable: %s image is %d bytes, manifest says %d", set.shard(i), len(img), e.size)
	}
	if sha256.Sum256(img) != e.hash {
		return nil, fmt.Errorf("durable: %s image hash mismatch", set.shard(i))
	}
	return img, nil
}

// load rebuilds one committed shard set's store: every file verified
// against the manifest, then assembled under seed.
func (db *DB) load(cs committedSet, seed uint64) (*shard.Store, error) {
	images := make([][]byte, len(cs.entries))
	for i, e := range cs.entries {
		img, err := db.readImage(cs.shardSet, i, e)
		if err != nil {
			return nil, err
		}
		images[i] = img
	}
	s, err := db.assemble(cs.hseed, images, seed)
	if err != nil {
		if cs.ns != "" {
			err = fmt.Errorf("namespace %q: %w", cs.ns, err)
		}
		return nil, fmt.Errorf("durable: %w", err)
	}
	return s, nil
}

// assemble builds a store from one canonical image per shard, checking
// every image's checksums and the store's structural, routing and TTL
// invariants, and attaches the database clock.
func (db *DB) assemble(hseed uint64, images [][]byte, seed uint64) (*shard.Store, error) {
	readers := make([]io.Reader, len(images))
	for i, img := range images {
		readers[i] = bytes.NewReader(img)
	}
	s, err := shard.AssembleStore(hseed, readers, seed, nil)
	if err != nil {
		return nil, err
	}
	s.SetClock(db.opts.Clock)
	return s, nil
}

// verifySet re-renders every shard of one committed set from its live
// store and compares it byte for byte with the committed file. floors
// are the set's version floors; nil means the set never committed.
func (db *DB) verifySet(cs committedSet, s *shard.Store, floors []uint64) error {
	for i, e := range cs.entries {
		if ver := s.ShardVersion(i); floors == nil || ver != floors[i] {
			return fmt.Errorf("durable: %s has uncheckpointed changes (version %d)", cs.shard(i), ver)
		}
		_, img, err := s.SnapshotShard(i)
		if err != nil {
			return fmt.Errorf("durable: rendering %s: %w", cs.shard(i), err)
		}
		disk, err := db.readImage(cs.shardSet, i, e)
		if err != nil {
			return err
		}
		if !bytes.Equal(disk, img) {
			return fmt.Errorf("durable: %s on-disk image is not canonical", cs.shard(i))
		}
	}
	return nil
}

// committed returns the committed set named ns ("" for the default
// keyspace). The caller holds cpMu.
func (db *DB) committed(ns string) (committedSet, error) {
	if db.man == nil {
		return committedSet{}, errors.New("durable: no committed checkpoint")
	}
	entries := db.man.entries(ns)
	if entries == nil {
		return committedSet{}, fmt.Errorf("%w: %q", ErrNoNamespace, ns)
	}
	return committedSet{setOf(db.man.hseed, ns), entries}, nil
}

// committedImage returns the committed image of shard i of the set
// named ns, verified against the manifest. A hash that is no longer
// current fails with ErrStaleShard.
func (db *DB) committedImage(ns string, i int, hash [32]byte) ([]byte, error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	cs, err := db.committed(ns)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(cs.entries) {
		return nil, fmt.Errorf("durable: %s out of range, %d shards", cs.shard(i), len(cs.entries))
	}
	if cs.entries[i].hash != hash {
		return nil, fmt.Errorf("%w: %s", ErrStaleShard, cs.shard(i))
	}
	return db.readImage(cs.shardSet, i, cs.entries[i])
}

// committedHashes returns the routing seed and committed per-shard
// entries of the set named ns.
func (db *DB) committedHashes(ns string) (uint64, []ShardHash, error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	cs, err := db.committed(ns)
	if err != nil {
		return 0, nil, err
	}
	out := make([]ShardHash, len(cs.entries))
	for i, e := range cs.entries {
		out[i] = ShardHash{Size: e.size, Hash: e.hash}
	}
	return cs.hseed, out, nil
}

// versionsOf returns every shard's current version counter: the floors
// of a store that is exactly its committed images.
func versionsOf(s *shard.Store) []uint64 {
	v := make([]uint64, s.NumShards())
	for i := range v {
		v[i] = s.ShardVersion(i)
	}
	return v
}

// physLen returns the entries physically held by s, expired ones
// included.
func physLen(s *shard.Store) int {
	n := 0
	for i := 0; i < s.NumShards(); i++ {
		n += s.ShardLen(i)
	}
	return n
}
