package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/namespace"
	"repro/internal/shard"
)

// The manifest is the database's single commit record. It is
// deliberately free of anything history-shaped: no generation counter,
// no timestamps, no log sequence numbers — every field is a pure
// function of the store's current contents and its persisted seed, so
// the manifest bytes themselves are canonical (two databases with the
// same seed and the same per-tenant key-value sets have byte-identical
// manifests, whatever operation sequences, checkpoint schedules, or
// tenant creation/drop histories produced them).
//
//	magic    [8]byte  "HIDBMF02"
//	shards   uint64   power of two >= 1
//	hseed    uint64   routing seed (mixed), restored verbatim on open
//	per shard: size uint64, sha256 [32]byte of the shard image file
//	nsCount  uint64   committed namespaces
//	per namespace, byte-sorted by name (canonical order — never
//	creation order, so the record encodes nothing about when tenants
//	arrived):
//	    nameLen uint64, name [nameLen]byte
//	    per shard: size uint64, sha256 [32]byte (same shard count)
//	crc32    uint32   IEEE, over everything above
//
// A namespace's routing seed is NOT stored: it is recomputed as
// MixSeed(DeriveSeed(hseed, name)), so the derivation invariant holds
// by construction — a manifest cannot describe a tenant cell filed
// under anything but its derived seed. A namespace whose cell is
// physically empty at checkpoint time is excluded entirely:
// created-then-emptied is byte-identical to never-existed.
//
// Shard image files are content-addressed — shardFileName and
// nsShardFileName derive the name from the image hash (plus, for
// namespaces, the derived routing seed; never the tenant name) — so a
// crash can never leave a half-written file under a name the manifest
// already trusts: the manifest swap is the only commit point.
const manifestMagic = "HIDBMF02"

// manifestMagicV1 is the pre-namespace manifest format, accepted on
// decode as a zero-namespace manifest so existing directories open
// cleanly; the encoder always writes the current format.
const manifestMagicV1 = "HIDBMF01"

// manifestName is the manifest's filename inside a DB directory.
const manifestName = "MANIFEST"

// maxManifestShards bounds the shard count accepted from an untrusted
// manifest so a corrupt header cannot drive a huge allocation.
const maxManifestShards = 1 << 16

// maxManifestNamespaces bounds the namespace count the same way.
const maxManifestNamespaces = 1 << 16

// shardEntry describes one shard's committed image file.
type shardEntry struct {
	size int64
	hash [32]byte
}

// nsEntry describes one committed namespace: its tenant name and one
// image entry per shard. The name appears here and nowhere else on
// disk — dropping the tenant atomically replaces the manifest, so the
// name vanishes with the commit.
type nsEntry struct {
	name   string
	shards []shardEntry
}

// manifest is the decoded commit record. nss is byte-sorted by name.
type manifest struct {
	hseed  uint64
	shards []shardEntry
	nss    []nsEntry
}

// nsAt returns the namespace entry for name, or nil.
func (m *manifest) nsAt(name string) *nsEntry {
	for i := range m.nss {
		if m.nss[i].name == name {
			return &m.nss[i]
		}
	}
	return nil
}

// shardFileName returns the content-addressed name of shard i's image:
// a pure function of (index, image bytes), so the directory listing
// leaks nothing beyond the contents either.
func shardFileName(i int, hash [32]byte) string {
	return fmt.Sprintf("shard-%04d-%016x.img", i, binary.BigEndian.Uint64(hash[:8]))
}

// nsShardFileName returns the name of a namespace shard image. It is
// addressed by the tenant's DERIVED routing seed and the image hash —
// the tenant's name never reaches the directory listing, and the seed
// is one-way, so co-tenants scanning filenames learn nothing.
func nsShardFileName(nsHseed uint64, i int, hash [32]byte) string {
	return fmt.Sprintf("ns-%016x-%04d-%016x.img", nsHseed, i, binary.BigEndian.Uint64(hash[:8]))
}

// nsRoutingSeed recomputes a committed namespace's routing seed from
// the manifest's root seed and the tenant name.
func nsRoutingSeed(rootHseed uint64, name string) uint64 {
	return shard.MixSeed(namespace.DeriveSeed(rootHseed, name))
}

// encode renders the manifest with its trailing checksum.
func (m *manifest) encode() []byte {
	n := 8 + 8 + 8 + len(m.shards)*40 + 8
	for _, e := range m.nss {
		n += 8 + len(e.name) + len(e.shards)*40
	}
	buf := make([]byte, 0, n+4)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.shards)))
	buf = binary.LittleEndian.AppendUint64(buf, m.hseed)
	for _, e := range m.shards {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.size))
		buf = append(buf, e.hash[:]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.nss)))
	for _, e := range m.nss {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.name)))
		buf = append(buf, e.name...)
		for _, s := range e.shards {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.size))
			buf = append(buf, s.hash[:]...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest parses and verifies a manifest image.
func decodeManifest(b []byte) (*manifest, error) {
	if len(b) < 8+8+8+4 {
		return nil, fmt.Errorf("durable: manifest too short (%d bytes)", len(b))
	}
	v1 := false
	switch string(b[:8]) {
	case manifestMagic:
	case manifestMagicV1:
		v1 = true
	default:
		return nil, fmt.Errorf("durable: bad manifest magic %q", b[:8])
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("durable: manifest checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	nsh64 := binary.LittleEndian.Uint64(b[8:16])
	if nsh64 < 1 || nsh64 > maxManifestShards || nsh64&(nsh64-1) != 0 {
		return nil, fmt.Errorf("durable: implausible shard count %d in manifest", nsh64)
	}
	// Every count is checked against the bytes that must back it before
	// anything is allocated: a corrupt header cannot drive an allocation
	// larger than the manifest itself.
	if nsh64*40 > uint64(len(body)-24) {
		return nil, fmt.Errorf("durable: manifest truncated reading shard table")
	}
	nsh := int(nsh64)
	m := &manifest{
		hseed:  binary.LittleEndian.Uint64(b[16:24]),
		shards: make([]shardEntry, nsh),
	}
	rest := body[24:]
	take := func(n int, what string) ([]byte, error) {
		if len(rest) < n {
			return nil, fmt.Errorf("durable: manifest truncated reading %s", what)
		}
		out := rest[:n]
		rest = rest[n:]
		return out, nil
	}
	readShards := func(dst []shardEntry, what string) error {
		for i := range dst {
			e, err := take(40, what)
			if err != nil {
				return err
			}
			size := int64(binary.LittleEndian.Uint64(e))
			if size < 0 {
				return fmt.Errorf("durable: negative size in %s entry %d", what, i)
			}
			dst[i].size = size
			copy(dst[i].hash[:], e[8:40])
		}
		return nil
	}
	if err := readShards(m.shards, "shard table"); err != nil {
		return nil, err
	}
	if !v1 {
		cntb, err := take(8, "namespace count")
		if err != nil {
			return nil, err
		}
		cnt := binary.LittleEndian.Uint64(cntb)
		if cnt > maxManifestNamespaces || cnt*(8+1+nsh64*40) > uint64(len(rest)) {
			return nil, fmt.Errorf("durable: implausible namespace count %d in manifest", cnt)
		}
		m.nss = make([]nsEntry, cnt)
		for i := range m.nss {
			lb, err := take(8, "namespace name length")
			if err != nil {
				return nil, err
			}
			nl := binary.LittleEndian.Uint64(lb)
			if nl == 0 || nl > namespace.MaxName {
				return nil, fmt.Errorf("durable: implausible namespace name length %d in manifest", nl)
			}
			nb, err := take(int(nl), "namespace name")
			if err != nil {
				return nil, err
			}
			name := string(nb)
			if err := namespace.ValidateName(name); err != nil {
				return nil, fmt.Errorf("durable: manifest namespace %d: %w", i, err)
			}
			if i > 0 && m.nss[i-1].name >= name {
				return nil, fmt.Errorf("durable: manifest namespaces not in canonical order at %q", name)
			}
			m.nss[i].name = name
			m.nss[i].shards = make([]shardEntry, nsh)
			if err := readShards(m.nss[i].shards, "namespace shard table"); err != nil {
				return nil, err
			}
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes in manifest", len(rest))
	}
	return m, nil
}
