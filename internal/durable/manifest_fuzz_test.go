package durable

// FuzzDecodeManifest holds the manifest decoder — it parses the one
// file a recovering DB trusts, and replicas install manifests shipped
// by peers — to the contract of the repo's other untrusted decoders:
// hostile bytes produce an error, never a panic. A current-format
// manifest that decodes must re-encode to exactly its input (the
// record is canonical), and a version-1 manifest, which decodes as a
// zero-namespace manifest, must survive its re-encoding in the current
// format unchanged.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzManifest builds a manifest with the given shard count and
// namespace names (byte-sorted, as the encoder requires).
func fuzzManifest(shards int, names ...string) *manifest {
	entries := func(seed byte) []shardEntry {
		out := make([]shardEntry, shards)
		for i := range out {
			out[i] = shardEntry{size: int64(i) * 100, hash: [32]byte{seed, byte(i)}}
		}
		return out
	}
	m := &manifest{hseed: 0xfeedface, shards: entries(1)}
	for i, n := range names {
		m.nss = append(m.nss, nsEntry{name: n, shards: entries(byte(2 + i))})
	}
	return m
}

// v1Manifest renders m (which must have no namespaces) in the
// pre-namespace format: the v1 magic, no namespace count.
func v1Manifest(m *manifest) []byte {
	cur := m.encode()
	body := append([]byte(manifestMagicV1), cur[8:len(cur)-4-8]...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func FuzzDecodeManifest(f *testing.F) {
	for _, m := range []*manifest{
		fuzzManifest(1),
		fuzzManifest(16),
		fuzzManifest(1, "acme"),
		fuzzManifest(16, "acme", "globex", "initech"),
	} {
		f.Add(m.encode())
	}
	f.Add(v1Manifest(fuzzManifest(1)))
	f.Add(v1Manifest(fuzzManifest(16)))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkManifestRoundTrip(t, data)
		// Most mutations die at the checksum; resealing them reaches the
		// structural checks behind it.
		if len(data) >= 4 {
			body := data[:len(data)-4]
			checkManifestRoundTrip(t, binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
		}
	})
}

func checkManifestRoundTrip(t *testing.T, data []byte) {
	m, err := decodeManifest(data)
	if err != nil {
		return
	}
	back := m.encode()
	if string(data[:8]) == manifestMagic {
		if !bytes.Equal(back, data) {
			t.Fatalf("re-encode mismatch:\n got % x\nwant % x", back, data)
		}
		return
	}
	m2, err := decodeManifest(back)
	if err != nil {
		t.Fatalf("re-encoded v1 manifest does not decode: %v", err)
	}
	if !manifestsEqual(m, m2) {
		t.Fatalf("v1 manifest changed across re-encoding: %+v vs %+v", m, m2)
	}
}
