package shard

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/hipma"
	"repro/internal/iomodel"
	"repro/internal/xrand"
)

// buildFromSchedule applies a random valid schedule of the operation
// multiset {put(k, val(k)) : k in survivors ∪ departed} ∪
// {delete(k) : k in departed} to a fresh store: operation order is
// randomized by scheduleSeed, with each departed key's delete placed at
// a random point after its put. Different scheduleSeeds give different
// interleavings of the same multiset with the same final state.
func buildFromSchedule(t *testing.T, storeSeed, scheduleSeed uint64, shards int,
	survivors, departed []int64) *Store {
	t.Helper()
	s, err := New(shards, storeSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(scheduleSeed)
	puts := append(append([]int64(nil), survivors...), departed...)
	for i := len(puts) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		puts[i], puts[j] = puts[j], puts[i]
	}
	departedSet := map[int64]bool{}
	for _, k := range departed {
		departedSet[k] = true
	}
	var pending []int64 // departed keys inserted but not yet deleted
	next := 0
	for next < len(puts) || len(pending) > 0 {
		// Randomly take either the next put or a pending delete.
		if next < len(puts) && (len(pending) == 0 || rng.Intn(2) == 0) {
			k := puts[next]
			next++
			s.Put(k, k*7) // value is a function of the key, not the schedule
			if departedSet[k] {
				pending = append(pending, k)
			}
		} else {
			i := rng.Intn(len(pending))
			k := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			s.Delete(k)
		}
	}
	return s
}

// TestStoreHistoryIndependence is the sharded-layer analogue of the
// hipma image tests: two random valid schedules of the same operation
// multiset — including inserts and deletes of keys that have departed —
// must yield byte-identical images for every shard, and for the whole
// container. This is the paper's WHI guarantee lifted through the
// sharding layer: the image set is a function of (contents, seed) only.
func TestStoreHistoryIndependence(t *testing.T) {
	const storeSeed = 4242
	rng := xrand.New(606)
	var survivors, departed []int64
	seen := map[int64]bool{}
	for len(survivors) < 1500 {
		k := int64(rng.Intn(1 << 30))
		if !seen[k] {
			seen[k] = true
			survivors = append(survivors, k)
		}
	}
	for len(departed) < 700 {
		k := int64(rng.Intn(1 << 30))
		if !seen[k] {
			seen[k] = true
			departed = append(departed, k)
		}
	}
	for _, shards := range []int{1, 8} {
		a := buildFromSchedule(t, storeSeed, 111, shards, survivors, departed)
		b := buildFromSchedule(t, storeSeed, 999, shards, survivors, departed)
		if a.Len() != len(survivors) || b.Len() != len(survivors) {
			t.Fatalf("shards=%d: lengths %d/%d, want %d", shards, a.Len(), b.Len(), len(survivors))
		}
		for i := 0; i < shards; i++ {
			var ia, ib bytes.Buffer
			if _, err := a.WriteShard(i, &ia); err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriteShard(i, &ib); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ia.Bytes(), ib.Bytes()) {
				t.Errorf("shards=%d: shard %d image depends on operation history", shards, i)
			}
		}
		var ca, cb bytes.Buffer
		if _, err := a.WriteTo(&ca); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteTo(&cb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
			t.Errorf("shards=%d: container image depends on operation history", shards)
		}
	}
}

func buildRandomStore(t *testing.T, seed uint64, shards, ops int) *Store {
	t.Helper()
	s, err := New(shards, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed + 1)
	for i := 0; i < ops; i++ {
		k := int64(rng.Intn(ops))
		if rng.Intn(4) > 0 {
			s.Put(k, int64(i))
		} else {
			s.Delete(k)
		}
	}
	return s
}

func TestStoreImageRoundTrip(t *testing.T) {
	for _, ops := range []int{0, 1, 100, 6000} {
		s := buildRandomStore(t, 13, 8, ops)
		var buf bytes.Buffer
		wrote, err := s.WriteTo(&buf)
		if err != nil {
			t.Fatalf("ops=%d: WriteTo: %v", ops, err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("ops=%d: WriteTo reported %d bytes, wrote %d", ops, wrote, buf.Len())
		}
		q, err := ReadStore(bytes.NewReader(buf.Bytes()), 999, nil)
		if err != nil {
			t.Fatalf("ops=%d: ReadStore: %v", ops, err)
		}
		if q.Len() != s.Len() || q.NumShards() != s.NumShards() {
			t.Fatalf("ops=%d: shape mismatch after round trip", ops)
		}
		var want, got []Item
		s.Ascend(func(it Item) bool { want = append(want, it); return true })
		q.Ascend(func(it Item) bool { got = append(got, it); return true })
		if len(want) != len(got) {
			t.Fatalf("ops=%d: %d items after reload, want %d", ops, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("ops=%d: item %d differs: %+v vs %+v", ops, i, got[i], want[i])
			}
		}
		// Canonical: write → read → write is byte-stable.
		var buf2 bytes.Buffer
		if _, err := q.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("ops=%d: image changed across load/store", ops)
		}
		// A loaded store stays operational: routing still matches hseed.
		probe := int64(1<<40) + int64(ops)
		q.Put(probe, 1)
		if v, ok := q.Get(probe); !ok || v != 1 {
			t.Fatalf("ops=%d: loaded store lost a fresh key", ops)
		}
		q.Delete(probe)
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("ops=%d: loaded store: %v", ops, err)
		}
	}
}

func TestStoreImageRejectsCorruption(t *testing.T) {
	s := buildRandomStore(t, 19, 4, 1500)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadStore(bytes.NewReader(good[:len(good)/3]), 1, nil); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadStore(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("bad magic accepted")
	}
	// Implausible shard count (3 is not a power of two).
	bad = append([]byte(nil), good...)
	bad[8] = 3
	if _, err := ReadStore(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	// Flipped byte deep inside a shard payload: the shard's own checksum
	// must catch it.
	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if _, err := ReadStore(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("corrupted shard payload accepted")
	}
	// Corrupted routing seed: every shard then fails the routing check.
	bad = append([]byte(nil), good...)
	bad[16] ^= 0x01
	if _, err := ReadStore(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("corrupted routing seed accepted")
	}
	// Junk appended to one shard's image: AssembleStore must see it
	// however little there is, not just what a reader failed to
	// buffer past the expiry image.
	for _, junk := range []int{1, 100} {
		images := make([]io.Reader, s.NumShards())
		for i := range images {
			var img bytes.Buffer
			if _, err := s.WriteShard(i, &img); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				img.Write(make([]byte, junk))
			}
			images[i] = &img
		}
		if _, err := AssembleStore(s.RoutingSeed(), images, 1, nil); err == nil {
			t.Errorf("%d junk bytes after a shard image accepted", junk)
		}
	}
}

// TestStoreImageTrackers: a store reloaded with trackers resumes DAM
// accounting on the loaded shards.
func TestStoreImageTrackers(t *testing.T) {
	s := buildRandomStore(t, 23, 2, 2000)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trackers := []*iomodel.Tracker{iomodel.New(64, 8), iomodel.New(64, 8)}
	q, err := ReadStore(&buf, 3, trackers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trackers {
		trackers[i].Reset() // discard the load-time invariant-check traffic
	}
	rng := xrand.New(29)
	for i := 0; i < 2000; i++ {
		q.Get(int64(rng.Intn(2000)))
	}
	if q.Stats().Reads == 0 {
		t.Fatal("no reads recorded on a tracker-reloaded store")
	}
}

// TestImageSizeMatchesRender checks, over the golden stores, that the
// sizes the render path allocates and length-prefixes from are exact:
// each hipma image's ImageSize equals the bytes its WriteTo writes, and
// SnapshotShard returns exactly WriteShard's bytes.
func TestImageSizeMatchesRender(t *testing.T) {
	for _, gc := range goldenCases {
		s := gc.build(t)
		for i := 0; i < s.NumShards(); i++ {
			im, err := canonicalShard(&s.cells[i], s.cfg, s.hseed, i)
			if err != nil {
				t.Fatal(err)
			}
			for part, p := range map[string]*hipma.PMA{"data": im.data, "expiry": im.exps} {
				var buf bytes.Buffer
				n, err := p.WriteTo(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if n != int64(buf.Len()) || p.ImageSize() != n {
					t.Errorf("%s: shard %d %s image: ImageSize %d, WriteTo reported %d and wrote %d",
						gc.name, i, part, p.ImageSize(), n, buf.Len())
				}
			}
			var want bytes.Buffer
			if _, err := s.WriteShard(i, &want); err != nil {
				t.Fatal(err)
			}
			ver, img, err := s.SnapshotShard(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, want.Bytes()) || int64(len(img)) != im.size() || cap(img) != len(img) {
				t.Errorf("%s: shard %d: SnapshotShard gave %d bytes (cap %d), WriteShard %d, size %d",
					gc.name, i, len(img), cap(img), want.Len(), im.size())
			}
			if ver != s.ShardVersion(i) {
				t.Errorf("%s: shard %d: snapshot version %d, shard at %d", gc.name, i, ver, s.ShardVersion(i))
			}
		}
	}
}
