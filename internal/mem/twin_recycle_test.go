package mem

import (
	"bytes"
	"testing"

	"interweave/internal/arch"
)

// TestRecycledTwinHoldsPreWriteBytes fills a page with one pattern,
// twins it, rewrites every byte with a second pattern and drops the
// twin. The next write fault must reuse that twin page and fill it
// with the second pattern — the page as it was just before the write
// — with no byte left over from the first.
func TestRecycledTwinHoldsPreWriteBytes(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	ss := b.Sub
	pg := int(b.Addr-ss.Base) >> arch.PageShift
	page := ss.Data[pg<<arch.PageShift : (pg+1)<<arch.PageShift]
	fill := func(v byte) []byte {
		p := bytes.Repeat([]byte{v}, arch.PageSize)
		if err := h.Write(ss.Base+Addr(pg<<arch.PageShift), p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	fill(0xA1)
	s.WriteProtect()
	second := fill(0xB2)
	first := ss.Twin(pg)
	if first == nil || first[0] != 0xA1 {
		t.Fatalf("first twin = %x..., want the 0xA1 page", first[:8])
	}
	s.DropTwins()
	if len(h.spareTwins) != 1 {
		t.Fatalf("spare list holds %d pages after dropping one twin, want 1", len(h.spareTwins))
	}

	s.WriteProtect()
	if err := h.WriteU8(b.Addr, 0xC3); err != nil {
		t.Fatal(err)
	}
	twin := ss.Twin(pg)
	if &twin[0] != &first[0] {
		t.Fatal("write fault allocated a new twin instead of reusing the spare page")
	}
	if !bytes.Equal(twin, second) {
		t.Fatalf("recycled twin differs from the pre-write page: %x...", twin[:16])
	}
	if page[0] != 0xC3 || h.Stats().Twins != 2 {
		t.Errorf("live byte %#x, twins created %d; want 0xc3 and 2", page[0], h.Stats().Twins)
	}
}

// TestSpareTwinsBounded checks the spare list keeps no more pages than
// the last DropTwins released, and never more than maxSpareTwins.
func TestSpareTwinsBounded(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	pages := maxSpareTwins + 8
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), pages*arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	touch := func(n int) {
		s.WriteProtect()
		for p := 0; p < n; p++ {
			if err := h.WriteU8(b.Addr+Addr(p*arch.PageSize), byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		s.DropTwins()
	}
	touch(pages)
	if len(h.spareTwins) != maxSpareTwins {
		t.Errorf("after dropping %d twins the spare list holds %d, want the cap %d", pages, len(h.spareTwins), maxSpareTwins)
	}
	touch(3)
	if len(h.spareTwins) != 3 {
		t.Errorf("after dropping 3 twins the spare list holds %d, want 3", len(h.spareTwins))
	}
}
