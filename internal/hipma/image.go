package hipma

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/hialloc"
	"repro/internal/iomodel"
	"repro/internal/veb"
	"repro/internal/xrand"
)

// Disk image format. The image is, deliberately, exactly the PMA's
// memory representation — the array (slots and gaps), the rank tree and
// the balance-key tree in their physical van Emde Boas order — because
// history independence is a property of that representation
// (Definition 4): an image of the structure must not carry anything
// the in-memory layout would not. The only extras are the header needed
// to reinterpret the bytes (config, N, N̂) and a checksum.
//
//	magic   [8]byte  "HIPMA\x00v1"
//	c1      float64 bits
//	cl      float64 bits
//	minTree int64
//	n       int64
//	nhat    int64
//	slots   [N_S]{key int64, val int64}
//	ranks   [2^{h+1}-1]int64   (physical vEB order)
//	keys    [2^{h+1}-1]int64   (physical vEB order)
//	crc32   uint32 (IEEE, over everything above)
//
// All integers little-endian. N_S and h are derived from (config, N̂)
// exactly as at run time, so a mismatch is detected structurally.

var imageMagic = [8]byte{'H', 'I', 'P', 'M', 'A', 0, 'v', '1'}

// imageHeaderLen is the fixed prefix: magic plus five 8-byte fields.
const imageHeaderLen = 8 + 5*8

// imageLen is the byte length of an image with the given slot count
// and tree node count: header, slots, both trees, checksum.
func imageLen(slots, nodes int) int64 {
	return imageHeaderLen + 16*int64(slots) + 2*8*int64(nodes) + 4
}

// ImageSize returns the exact number of bytes WriteTo writes: a pure
// function of (config, N̂), through the same geometry ReadImage derives,
// so a caller can length-prefix or allocate for an image before
// rendering it.
func (p *PMA) ImageSize() int64 {
	return imageLen(len(p.slots), p.ranks.Layout().NumNodes())
}

// WriteTo serializes the PMA's exact memory representation. It
// implements io.WriterTo. The checksum sits behind the buffer, so it
// hashes whole buffered blocks rather than one slot at a time.
func (p *PMA) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)

	var hdr [imageHeaderLen]byte
	copy(hdr[:], imageMagic[:])
	for i, v := range []uint64{
		math.Float64bits(p.cfg.C1),
		math.Float64bits(p.cfg.CL),
		uint64(p.cfg.MinTreeNhat),
		uint64(p.n),
		uint64(p.nhat),
	} {
		binary.LittleEndian.PutUint64(hdr[8+8*i:], v)
	}
	n, _ := bw.Write(hdr[:])
	written := int64(n)
	// The array, verbatim: occupied slots and zeroed gaps alike. A write
	// error is sticky in bw, so it is checked once, at Flush.
	var buf [16]byte
	for _, it := range p.slots {
		binary.LittleEndian.PutUint64(buf[0:], uint64(it.Key))
		binary.LittleEndian.PutUint64(buf[8:], uint64(it.Val))
		n, _ = bw.Write(buf[:])
		written += int64(n)
	}
	// Both trees in physical (vEB) order: BFS index -> physical slot is
	// the deterministic layout permutation, so dumping physical order
	// preserves the on-disk representation exactly.
	for _, t := range []*veb.Tree{p.ranks, p.keys} {
		n, _ = bw.Write(treePhysical(t))
		written += int64(n)
	}
	if err := bw.Flush(); err != nil {
		return written - int64(bw.Buffered()), err
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	n, err := w.Write(buf[:4])
	return written + int64(n), err
}

// treePhysical encodes t's nodes in physical order, recovered by
// inverting the BFS->phys permutation.
func treePhysical(t *veb.Tree) []byte {
	n := t.Layout().NumNodes()
	out := make([]byte, 8*n)
	for bfs := 1; bfs <= n; bfs++ {
		binary.LittleEndian.PutUint64(out[8*t.Layout().Phys(bfs):], uint64(t.Get(bfs)))
	}
	return out
}

// ReadImage deserializes a PMA image. The seed supplies fresh
// randomness for all future operations — weak history independence is
// preserved because the persisted state's distribution depends only on
// the logical state, and future coins are independent of the past.
// io may be nil. The image's checksum and structural invariants are
// verified before the PMA is returned. ReadImage consumes exactly the
// image's bytes from r — the header fixes the length — so whatever
// follows the image is left unread for the caller to inspect.
func ReadImage(r io.Reader, seed uint64, io2 *iomodel.Tracker) (*PMA, error) {
	var hdr [imageHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("hipma: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != imageMagic {
		return nil, fmt.Errorf("hipma: bad magic %q", hdr[:8])
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[8+8*i:]) }
	cfg := Config{
		C1:          math.Float64frombits(field(0)),
		CL:          math.Float64frombits(field(1)),
		MinTreeNhat: int(int64(field(2))),
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := int(int64(field(3)))
	nhat := int(int64(field(4)))
	// A plausibility ceiling keeps the geometry arithmetic below far
	// from overflow on a hostile header; real images are nowhere near.
	if n > 1<<48 {
		return nil, fmt.Errorf("hipma: implausible n %d in image", n)
	}

	p := &PMA{cfg: cfg, rng: xrand.New(seed), io: io2}
	// RestoreSizer rejects a negative n and an N̂ outside its support.
	sizer, err := hialloc.RestoreSizer(n, nhat, p.rng.Split())
	if err != nil {
		return nil, err
	}
	p.sizer = sizer
	p.nhat = nhat
	p.h, p.leafSlots, p.cand = p.geometry(nhat)
	ns := (1 << uint(p.h)) * p.leafSlots
	if p.leafSlots < 1 || ns>>uint(p.h) != p.leafSlots {
		return nil, fmt.Errorf("hipma: implausible geometry h=%d, %d slots per leaf", p.h, p.leafSlots)
	}
	p.n = n

	// Only the rest of this image is buffered, so the reader never
	// consumes bytes that belong to whatever follows it.
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	nodes := 1<<uint(p.h+1) - 1
	br := bufio.NewReader(io.LimitReader(r, imageLen(ns, nodes)-imageHeaderLen))
	cr := io.TeeReader(br, crc)

	// The slot array is grown as bytes actually arrive rather than
	// allocated to the header-declared size up front, so a corrupt or
	// truncated image can never cost more memory than its own length
	// (the fuzz targets feed exactly such images).
	const slotChunk = 512
	p.slots = make([]Item, 0, min(ns, slotChunk))
	buf := make([]byte, 16*slotChunk)
	for len(p.slots) < ns {
		c := min(ns-len(p.slots), slotChunk)
		if _, err := io.ReadFull(cr, buf[:16*c]); err != nil {
			return nil, fmt.Errorf("hipma: reading slot %d: %w", len(p.slots), err)
		}
		for j := 0; j < c; j++ {
			p.slots = append(p.slots, Item{
				Key: int64(binary.LittleEndian.Uint64(buf[16*j:])),
				Val: int64(binary.LittleEndian.Uint64(buf[16*j+8:])),
			})
		}
	}
	layout := veb.NewLayout(p.h + 1)
	p.ranks = veb.NewTree(layout, int64(ns), io2)
	p.keys = veb.NewTree(layout, int64(ns)+int64(nodes), io2)
	if err := readTreePhysical(cr, p.ranks); err != nil {
		return nil, err
	}
	if err := readTreePhysical(cr, p.keys); err != nil {
		return nil, err
	}
	wantCRC := crc.Sum32()
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("hipma: reading checksum: %w", err)
	}
	if gotCRC := binary.LittleEndian.Uint32(buf); gotCRC != wantCRC {
		return nil, fmt.Errorf("hipma: checksum mismatch: image %08x, computed %08x", gotCRC, wantCRC)
	}
	if err := p.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("hipma: corrupt image: %w", err)
	}
	return p, nil
}

// readTreePhysical fills t from its physical-order encoding, the
// inverse of treePhysical.
func readTreePhysical(r io.Reader, t *veb.Tree) error {
	n := t.Layout().NumNodes()
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("hipma: reading tree: %w", err)
	}
	for bfs := 1; bfs <= n; bfs++ {
		t.Set(bfs, int64(binary.LittleEndian.Uint64(buf[8*t.Layout().Phys(bfs):])))
	}
	return nil
}
