package hipma

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xrand"
)

func buildRandomPMA(t *testing.T, seed uint64, ops int) *PMA {
	t.Helper()
	p := New(seed, nil)
	rng := xrand.New(seed + 1)
	for i := 0; i < ops; i++ {
		if p.Len() == 0 || rng.Intn(4) > 0 {
			p.InsertAt(rng.Intn(p.Len()+1), Item{Key: int64(i), Val: int64(i * 2)})
		} else {
			p.DeleteAt(rng.Intn(p.Len()))
		}
	}
	return p
}

func TestImageRoundTrip(t *testing.T) {
	for _, ops := range []int{0, 1, 50, 5000} {
		p := buildRandomPMA(t, 11, ops)
		var buf bytes.Buffer
		wrote, err := p.WriteTo(&buf)
		if err != nil {
			t.Fatalf("ops=%d: WriteTo: %v", ops, err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("ops=%d: WriteTo reported %d bytes, wrote %d", ops, wrote, buf.Len())
		}
		q, err := ReadImage(bytes.NewReader(buf.Bytes()), 999, nil)
		if err != nil {
			t.Fatalf("ops=%d: ReadImage: %v", ops, err)
		}
		if q.Len() != p.Len() || q.Nhat() != p.Nhat() || q.SlotCount() != p.SlotCount() {
			t.Fatalf("ops=%d: shape mismatch after round trip", ops)
		}
		if p.Len() > 0 {
			a := p.Query(0, p.Len()-1, nil)
			b := q.Query(0, q.Len()-1, nil)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("ops=%d: element %d differs: %+v vs %+v", ops, i, a[i], b[i])
				}
			}
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("ops=%d: loaded PMA: %v", ops, err)
		}
	}
}

// TestImageIsCanonical: the image is a pure function of the memory
// representation — writing, loading, and writing again yields the
// identical byte stream.
func TestImageIsCanonical(t *testing.T) {
	p := buildRandomPMA(t, 13, 3000)
	var img1 bytes.Buffer
	if _, err := p.WriteTo(&img1); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(bytes.NewReader(img1.Bytes()), 12345, nil)
	if err != nil {
		t.Fatal(err)
	}
	var img2 bytes.Buffer
	if _, err := q.WriteTo(&img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1.Bytes(), img2.Bytes()) {
		t.Fatal("image changed across load/store: representation not canonical")
	}
}

// TestLoadedPMARemainsOperational: a loaded PMA supports further
// updates and keeps all invariants.
func TestLoadedPMARemainsOperational(t *testing.T) {
	p := buildRandomPMA(t, 17, 2000)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf, 777, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(21)
	for i := 0; i < 3000; i++ {
		if q.Len() == 0 || rng.Intn(3) > 0 {
			q.InsertAt(rng.Intn(q.Len()+1), Item{Key: int64(i)})
		} else {
			q.DeleteAt(rng.Intn(q.Len()))
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	p := buildRandomPMA(t, 19, 800)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncated image.
	if _, err := ReadImage(bytes.NewReader(good[:len(good)/2]), 1, nil); err == nil {
		t.Error("truncated image accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadImage(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("bad magic accepted")
	}
	// Flipped payload byte: checksum must catch it.
	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if _, err := ReadImage(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("corrupted payload accepted")
	}
	// Flipped checksum byte.
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if _, err := ReadImage(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("corrupted checksum accepted")
	}
	// Nhat outside [n, 2n-1] (offset 8 magic + 3*8 config = 32; n at 32,
	// nhat at 40).
	bad = append([]byte(nil), good...)
	bad[40] = 0x01
	bad[41] = 0x00
	if _, err := ReadImage(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("implausible Nhat accepted")
	}
	// A CL so large that the slot count N_S = 2^h * ceil(CL * log N̂)
	// overflows int to a negative value: an error, not a panic.
	bad = append([]byte(nil), good...)
	cl := float64(uint64(1)<<(63-p.Height())) / math.Log2(float64(p.Nhat()))
	binary.LittleEndian.PutUint64(bad[16:], math.Float64bits(cl))
	if _, err := ReadImage(bytes.NewReader(bad), 1, nil); err == nil {
		t.Error("overflowing slot count accepted")
	}
}

func TestImageEmptyPMA(t *testing.T) {
	p := New(23, nil)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
	q.InsertAt(0, Item{Key: 1})
	if q.Len() != 1 {
		t.Fatal("insert after empty load failed")
	}
}
