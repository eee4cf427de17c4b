package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/xrand"
)

// goldenCase is one fixed store whose on-disk bytes are pinned below.
type goldenCase struct {
	name   string
	seed   uint64
	shards int
	keys   int  // keys inserted: k*7919 for k in [0, keys)
	ttl    bool // a seeded two thirds of the keys (or the only one) carry a TTL
	store  string
	images []string
}

// emptyShard is the SHA-256 of an empty shard's canonical image pair.
const emptyShard = "3d3f44252829e5e2c2c4e5c45df41556796ffe876b1e1576ab35fa410abb2339"

// goldenCases pins the on-disk format: the SHA-256 of each store's
// Store.WriteTo container and of every WriteShard image, in shard
// order. The cases cover an empty store, one key, one key with a TTL
// (a non-empty expiry index), a shard just past the N̂ >= MinTreeNhat
// (128) boundary where the canonical PMA leaves the dynamic-array
// fallback for the tree geometry, and a large store with mixed TTLs.
// A refactor of the image path must leave every digest unchanged; a
// deliberate format change bumps a magic and re-pins the table.
var goldenCases = []goldenCase{
	{
		name: "empty", seed: 1, shards: 4,
		store:  "28cdef28967a1b8cdbc62ef91985dcbdab5338bc11330faf1ff5483cf78a7e94",
		images: []string{emptyShard, emptyShard, emptyShard, emptyShard},
	},
	{
		name: "one key", seed: 2, shards: 4, keys: 1,
		store: "a6603c00557140795abbb06b0220720c7c783ba48c30031853b3660366ae191e",
		images: []string{
			"f0f4807822900726464ba35e9b80760140264afb5a4b53e7ea5cb3c49956f460",
			emptyShard, emptyShard, emptyShard,
		},
	},
	{
		name: "one key with ttl", seed: 3, shards: 4, keys: 1, ttl: true,
		store: "680d2f27c755bd7f86766d85de387970334c57887778241851246c64f84ff7fd",
		images: []string{
			emptyShard, emptyShard,
			"79d5c7fbd65915fe104ee0c3e433bcc695e63fd1280103255bd2f0e54bd21f10",
			emptyShard,
		},
	},
	{
		name: "129 keys, one shard", seed: 4, shards: 1, keys: 129,
		store: "5c7e509c6ff9abc2e553203ba6c7f6b617d8373fbf4ac98a87f3662006768e4f",
		images: []string{
			"c78262fdc79999a4f6964ad62843825934dd381844e82d63f34206b6c7968be6",
		},
	},
	{
		name: "10k keys, mixed ttls", seed: 5, shards: 8, keys: 10000, ttl: true,
		store: "f47fc9be70d7e19a02fca17462b914367784a0c2661773a42a00ed45655d6c4f",
		images: []string{
			"e644cb62b903cbb84d9d8e9a9f7b69a2cb212c0ff77335b377803824a593c53d",
			"86684e1d419d923ad4d764739d8c289659a8ec422d7f8e9391c3a67d89be71ab",
			"7afde186bb8974603afc91ca881811737a167e591c4b453cbf78af32c8f786eb",
			"fa3cd20e2d28e8759096bf7a38a829352520c54a2e39568573b9c86b9dd9f9ec",
			"20ccc0e4e9036fa68819a339407deefcd2193b9db46aa71f68201847adbc6423",
			"885296f1e51ce9212ac79c6bb207c9ea05d48a8008933df970326a2126ccd5ef",
			"185551decfda5ea33025f8beb1f5091477cdd08cf837a4bc7ec6e8f466332454",
			"cc11f32154c749b2b6c118aab345cf9c17c1191ef6f6cc10d2d3ee1de88b5dcb",
		},
	},
}

// build returns the case's store; its contents are a function of the
// case alone.
func (gc goldenCase) build(t *testing.T) *Store {
	t.Helper()
	s, err := New(gc.shards, gc.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(gc.seed + 100)
	for k := 0; k < gc.keys; k++ {
		key, val := int64(k)*7919, int64(rng.Intn(1<<30))
		if gc.ttl && (gc.keys == 1 || rng.Intn(3) > 0) {
			s.PutTTL(key, val, 1_700_000_000+int64(rng.Intn(1<<20)))
		} else {
			s.Put(key, val)
		}
	}
	return s
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenImageBytes(t *testing.T) {
	for _, gc := range goldenCases {
		s := gc.build(t)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", gc.name, err)
		}
		if got := sha256Hex(buf.Bytes()); got != gc.store {
			t.Errorf("%s: WriteTo sha256 = %s, want %s", gc.name, got, gc.store)
		}
		if s.NumShards() != len(gc.images) {
			t.Fatalf("%s: %d shards, want %d", gc.name, s.NumShards(), len(gc.images))
		}
		for i, want := range gc.images {
			buf.Reset()
			if _, err := s.WriteShard(i, &buf); err != nil {
				t.Fatalf("%s: WriteShard(%d): %v", gc.name, i, err)
			}
			if got := sha256Hex(buf.Bytes()); got != want {
				t.Errorf("%s: WriteShard(%d) sha256 = %s, want %s", gc.name, i, got, want)
			}
		}
	}
}
