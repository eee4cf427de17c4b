package shard

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cobt"
	"repro/internal/hipma"
	"repro/internal/iomodel"
)

// Disk image: a fixed header followed by each shard's canonical image,
// length-prefixed, in shard order.
//
//	magic   [8]byte  "ASHARD02"
//	shards  uint64   power of two >= 1
//	hseed   uint64   routing seed (needed to route lookups after a load)
//	per shard: len uint64, then len bytes of the shard's canonical image
//
// A shard's canonical image is a pair of PMA images (each carrying its
// own checksum, see hipma.WriteTo): the data dictionary, then the TTL
// expiry index (key -> absolute expiry for exactly the keys that have
// one; empty when no TTLs are in play). The data image is length-
// prefixed (u64 little-endian). Each PMA image's header fixes its
// length, so the reader consumes the pair exactly and checks that the
// prefix agrees.
//
// The persisted shard images are CANONICAL: WriteTo does not dump the
// in-memory incarnation (whose layout depends on the random stream the
// update history happened to consume — history independent only in
// distribution), but instead serializes a fresh bulk-load of the shard's
// sorted contents under a seed derived from (hseed, shard index). The
// byte stream is therefore a pure function of the store's contents and
// its persisted randomness: two stores with the same seed and the same
// (key, value, expiry) set produce byte-identical images for every
// shard, whatever operation sequences built them — including whatever
// schedule of TTL sweeps physically removed their dead entries. That is
// the paper's anti-persistence goal stated at the layer the observer
// actually sees — the disk.
const storeMagic = "ASHARD02"

// maxImageShards bounds the shard count accepted from an untrusted
// image, so a corrupt header cannot drive a huge allocation (the cell
// slice is allocated before any shard data is read).
const maxImageShards = 1 << 16

// canonSeed derives shard i's canonical-image seed from the persisted
// routing seed, so the canonical image survives save/load round trips.
func canonSeed(hseed uint64, i int) uint64 {
	return mix((hseed ^ 0xbadc0ffee0ddf00d) + 0x9e3779b97f4a7c15*uint64(i))
}

// canonExpSeed derives shard i's canonical expiry-index seed, a stream
// independent of the data image's but equally a pure function of the
// persisted routing seed.
func canonExpSeed(hseed uint64, i int) uint64 {
	return mix(canonSeed(hseed, i) ^ 0x7ee150deadc0ffee)
}

// canonicalPMA returns the canonical form of one dictionary: a
// one-shot bulk load of its current sorted contents under the given
// seed. The caller holds the owning cell's lock; the result shares
// nothing with the dictionary.
func canonicalPMA(d *cobt.Dictionary, cfg hipma.Config, seed uint64) (*hipma.PMA, error) {
	var items []Item
	if n := d.Len(); n > 0 {
		items = d.PMA().Query(0, n-1, nil)
	}
	return hipma.BulkLoadWithConfig(cfg, items, seed, nil)
}

// shardImage is shard i's canonical image pair, ready to serialize.
type shardImage struct{ data, exps *hipma.PMA }

// canonicalShard renders shard c's canonical image pair: the data
// dictionary and the expiry index, each bulk-loaded under its own
// seed. The caller holds c's lock.
func canonicalShard(c *cell, cfg hipma.Config, hseed uint64, i int) (shardImage, error) {
	data, err := canonicalPMA(c.dict, cfg, canonSeed(hseed, i))
	if err != nil {
		return shardImage{}, err
	}
	exps, err := canonicalPMA(c.exps, cfg, canonExpSeed(hseed, i))
	return shardImage{data, exps}, err
}

// size is the exact length writeTo writes.
func (im shardImage) size() int64 { return 8 + im.data.ImageSize() + im.exps.ImageSize() }

// writeTo streams the pair: the data image's length prefix, known up
// front from ImageSize, then both images. framed prefixes the whole
// pair with its own length, as the container format does.
func (im shardImage) writeTo(w io.Writer, framed bool) (int64, error) {
	var hdr []byte
	if framed {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(im.size()))
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(im.data.ImageSize()))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	n64, err := im.data.WriteTo(w)
	total += n64
	if err != nil {
		return total, err
	}
	n64, err = im.exps.WriteTo(w)
	return total + n64, err
}

// readShardImage reads one shard's canonical image pair from r,
// returning the data dictionary and the expiry index.
func readShardImage(r io.Reader, seed uint64, i int, t *iomodel.Tracker) (dict, exps *cobt.Dictionary, err error) {
	var lenHdr [8]byte
	if _, err := io.ReadFull(r, lenHdr[:]); err != nil {
		return nil, nil, fmt.Errorf("reading data image length: %w", err)
	}
	dict, err = cobt.ReadDictionary(r, shardSeed(seed, i), t)
	if err != nil {
		return nil, nil, err
	}
	// The reader consumed exactly the data image, whose header fixes
	// its length; the prefix must state that same length.
	if n, want := binary.LittleEndian.Uint64(lenHdr[:]), dict.PMA().ImageSize(); n != uint64(want) {
		return nil, nil, fmt.Errorf("data image length prefix %d, image is %d bytes", n, want)
	}
	exps, err = cobt.ReadDictionary(r, expShardSeed(seed, i), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("expiry index: %w", err)
	}
	return dict, exps, nil
}

// WriteTo serializes the whole store. It holds every shard's lock, so
// the image is an atomic snapshot. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.lockAllShared()
	defer s.unlockAllShared()
	var hdr [24]byte
	copy(hdr[:8], storeMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.cells)))
	binary.LittleEndian.PutUint64(hdr[16:], s.hseed)
	n, err := w.Write(hdr[:])
	total := int64(n)
	if err != nil {
		return total, err
	}
	for i := range s.cells {
		im, err := canonicalShard(&s.cells[i], s.cfg, s.hseed, i)
		if err != nil {
			return total, err
		}
		n, err := im.writeTo(w, true)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// snapshot renders shard i's canonical image pair and reads its version
// counter under one lock hold. The pair shares nothing with the live
// shard, so it is serialized after the lock is released.
func (s *Store) snapshot(i int) (version uint64, im shardImage, err error) {
	if i < 0 || i >= len(s.cells) {
		return 0, im, fmt.Errorf("shard: shard %d out of range, %d shards", i, len(s.cells))
	}
	c := &s.cells[i]
	c.rlock()
	defer c.runlock()
	im, err = canonicalShard(c, s.cfg, s.hseed, i)
	return c.version, im, err
}

// WriteShard serializes shard i's canonical image alone (no container
// header): a pure function of the shard's contents and the store seed,
// byte-identical across any two operation histories that reach the same
// contents.
func (s *Store) WriteShard(i int, w io.Writer) (int64, error) {
	_, im, err := s.snapshot(i)
	if err != nil {
		return 0, err
	}
	return im.writeTo(w, false)
}

// SnapshotShard returns shard i's canonical image, the bytes WriteShard
// writes, rendered once into a slice of exactly its size, together
// with the shard's version counter at the moment of the snapshot. The
// version and the image are captured under the same lock hold, so a
// later ShardVersion(i) == version guarantees the image still describes
// the shard's exact contents — the contract an incremental
// checkpointer needs.
func (s *Store) SnapshotShard(i int) (version uint64, img []byte, err error) {
	version, im, err := s.snapshot(i)
	if err != nil {
		return 0, nil, err
	}
	w := sliceWriter(make([]byte, 0, im.size()))
	if _, err := im.writeTo(&w, false); err != nil {
		return 0, nil, err
	}
	return version, w, nil
}

// sliceWriter appends to its slice; SnapshotShard sizes it up front so
// the append never reallocates.
type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// AssembleStore rebuilds a store from one canonical image per shard (as
// produced by WriteShard or SnapshotShard) plus the persisted routing
// seed. It is the recovery path of the durable layer: the manifest
// carries hseed and the shard files carry the images. len(images) must
// be a power of two >= 1; trackers must be nil or hold one tracker per
// shard. The caller's seed supplies fresh randomness for future
// operations. Shard, routing, and TTL invariants are verified. The
// returned store has no clock; the caller attaches one with SetClock
// before sharing it.
func AssembleStore(hseed uint64, images []io.Reader, seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	nsh := len(images)
	if nsh < 1 || nsh&(nsh-1) != 0 {
		return nil, fmt.Errorf("shard: %d shard images is not a power of two >= 1", nsh)
	}
	return assemble(hseed, nsh, func(i int) (io.Reader, error) { return images[i], nil }, seed, trackers)
}

// ReadStore deserializes a store image produced by WriteTo. The routing
// seed is part of the image (lookups must keep routing to the shards
// that hold the keys); the caller's seed supplies only fresh randomness
// for future per-shard operations. trackers must be nil or hold one
// tracker per stored shard. Shard, routing, and TTL invariants are
// verified.
func ReadStore(r io.Reader, seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("shard: reading header: %w", err)
	}
	if string(hdr[:8]) != storeMagic {
		return nil, fmt.Errorf("shard: bad magic %q", hdr[:8])
	}
	nsh := binary.LittleEndian.Uint64(hdr[8:])
	if nsh < 1 || nsh > maxImageShards || nsh&(nsh-1) != 0 {
		return nil, fmt.Errorf("shard: implausible shard count %d", nsh)
	}
	return assemble(binary.LittleEndian.Uint64(hdr[16:]), int(nsh), func(int) (io.Reader, error) {
		if _, err := io.ReadFull(r, hdr[:8]); err != nil {
			return nil, fmt.Errorf("reading length: %w", err)
		}
		return io.LimitReader(r, int64(binary.LittleEndian.Uint64(hdr[:8]))), nil
	}, seed, trackers)
}

// assemble reads a store of nsh shards routed by hseed, shard i's image
// pair from next(i), and verifies it. Each image must end exactly where
// its reader does: trailing bytes mean a corrupt or padded file, and in
// a container they would misalign every later shard's length header.
func assemble(hseed uint64, nsh int, next func(i int) (io.Reader, error), seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	if trackers != nil && len(trackers) != nsh {
		return nil, fmt.Errorf("shard: %d trackers for %d shards", len(trackers), nsh)
	}
	s := &Store{mask: uint64(nsh - 1), hseed: hseed, cells: make([]cell, nsh)}
	for i := range s.cells {
		var t *iomodel.Tracker
		if trackers != nil {
			t = trackers[i]
		}
		r, err := next(i)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		d, e, err := readShardImage(r, seed, i, t)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if extra, err := io.Copy(io.Discard, r); err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		} else if extra > 0 {
			return nil, fmt.Errorf("shard: shard %d: %d trailing bytes after image", i, extra)
		}
		s.cells[i].dict = d
		s.cells[i].exps = e
		s.cells[i].io = t
	}
	s.cfg = s.cells[0].dict.PMA().Config()
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("shard: corrupt image: %w", err)
	}
	return s, nil
}
