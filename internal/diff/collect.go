// Package diff implements InterWeave's modification tracking and
// wire-format diffing (paper Section 3.1).
//
// When a client releases a write lock, the library gathers local
// changes and converts them into machine-independent wire format —
// "diff collection". It scans the pagemaps of the segment's
// subsegments, performs a word-by-word comparison of each modified
// page against its twin, splices nearly-adjacent runs, maps the
// changed byte ranges onto blocks through the address-sorted metadata
// trees, and translates each run into wire format through the blocks'
// type descriptors. "Diff application" is the inverse: wire-format
// runs are located in blocks (with last-block prediction) and decoded
// into local format, swizzling MIPs back into machine addresses.
package diff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// DefaultSpliceWords is the paper's splicing threshold: one or two
// unchanged words between changed words are treated as changed, to
// avoid starting a new run-length-encoded section (Section 3.3).
const DefaultSpliceWords = 2

// SwizzleFunc converts a local pointer value to its MIP wire form.
type SwizzleFunc func(mem.Addr) (string, error)

// ResolveFunc converts a MIP wire form to a local pointer, fetching
// or reserving the target segment as needed.
type ResolveFunc func(string) (mem.Addr, error)

// Stats reports where collection and application time went,
// reproducing the cost breakdown of Figure 5.
type Stats struct {
	// WordDiff is time spent in word-by-word twin comparison
	// ("client word diffing").
	WordDiff time.Duration
	// Translate is time spent converting runs to or from wire
	// format ("client translation").
	Translate time.Duration
	// Runs is the number of wire runs produced or consumed.
	Runs int
	// Units is the number of primitive units transmitted.
	Units int
	// Bytes is the canonical wire payload of the runs produced or
	// consumed — the bandwidth a diff actually costs, which against
	// the segment's full-transfer size gives the byte savings of
	// diffing (Figure 7's measure).
	Bytes int
}

// CollectOptions controls diff collection.
type CollectOptions struct {
	// Version is the segment version the diff claims to produce;
	// servers may overwrite it when they assign the real version.
	Version uint32
	// Swizzle translates pointer cells; required when the segment
	// contains pointers.
	Swizzle SwizzleFunc
	// NoDiff transmits every block whole, skipping twin comparison
	// (the paper's no-diff mode).
	NoDiff bool
	// SpliceWords is the run-splicing threshold in words; negative
	// disables splicing, zero means DefaultSpliceWords.
	SpliceWords int
	// Freed lists serials of blocks freed since the last collection.
	Freed []uint32
	// Stats, when non-nil, accumulates phase timings.
	Stats *Stats
}

// CollectSegment gathers the segment's local modifications into a
// wire-format diff. Newly created (pending) blocks travel whole with
// NewBlock records; other blocks contribute word-diffed runs (or
// whole-block runs in no-diff mode). On success, pending flags are
// cleared. Twins are left in place; the caller drops them after the
// diff is accepted.
func CollectSegment(seg *mem.SegMem, opts CollectOptions) (*wire.SegmentDiff, error) {
	c := &collector{
		seg:    seg,
		heap:   seg.Heap(),
		prof:   seg.Heap().Profile(),
		opts:   opts,
		diffs:  make(map[uint32]int),
		splice: opts.SpliceWords,
	}
	if c.splice == 0 {
		c.splice = DefaultSpliceWords
	}
	if c.splice < 0 {
		c.splice = 0
	}
	d := &wire.SegmentDiff{Version: opts.Version, Freed: opts.Freed}
	c.out = d

	// Pending (newly created) blocks travel whole; in no-diff mode
	// every block does. Everything else is word-diffed against twins.
	var pending []*mem.Block
	local := 0 // local bytes the runs will translate
	seg.Blocks(func(b *mem.Block) bool {
		if b.Pending {
			pending = append(pending, b)
		}
		if b.Pending || opts.NoDiff {
			local += b.Size()
		}
		return true
	})
	var intervals []interval
	if !opts.NoDiff {
		start := time.Now()
		intervals = c.wordDiff()
		if opts.Stats != nil {
			opts.Stats.WordDiff += time.Since(start)
		}
		for _, iv := range intervals {
			local += iv.hi - iv.lo
		}
	}
	// Every run's wire data is appended to one arena. Fixed-width
	// units keep their local size on the wire; strings gain a length
	// prefix and pointers become MIPs, so twice the local bytes rarely
	// needs to grow.
	c.arena = make([]byte, 0, 2*local+arenaSlack)

	for _, b := range pending {
		d.News = append(d.News, wire.NewBlock{
			Serial:     b.Serial,
			DescSerial: b.DescSerial,
			Count:      uint32(b.Count),
			Name:       b.Name,
		})
		if err := c.fullBlockRun(b); err != nil {
			return nil, err
		}
	}

	if opts.NoDiff {
		// Whole-segment transmission: every non-pending block whole.
		var err error
		seg.Blocks(func(b *mem.Block) bool {
			if !b.Pending {
				if e := c.fullBlockRun(b); e != nil {
					err = e
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		for _, iv := range intervals {
			if err := c.translateInterval(iv); err != nil {
				return nil, err
			}
		}
		if opts.Stats != nil {
			opts.Stats.Translate += time.Since(start)
		}
	}

	for _, b := range pending {
		b.Pending = false
	}
	if opts.Stats != nil {
		opts.Stats.Runs += countRuns(d)
	}
	return d, nil
}

func countRuns(d *wire.SegmentDiff) int {
	n := 0
	for i := range d.Blocks {
		n += len(d.Blocks[i].Runs)
	}
	return n
}

type interval struct {
	sub    *mem.SubSeg
	lo, hi int // byte offsets within the subsegment
}

type collector struct {
	seg    *mem.SegMem
	heap   *mem.Heap
	prof   *arch.Profile
	opts   CollectOptions
	out    *wire.SegmentDiff
	diffs  map[uint32]int // block serial -> index in out.Blocks
	splice int
	// arena backs every run's Data; each run is a capacity-capped
	// sub-slice, so appending to one can never reach its neighbour.
	arena []byte
}

// arenaSlack is added to the arena's size estimate so that a tiny
// diff carrying a MIP or a short string still fits without growing.
const arenaSlack = 256

// chunkBytes is the width of the fast-path twin comparison: equal
// 32-byte chunks, then equal 8-byte words, are skipped whole, and only
// a differing 8-byte word is compared at the paper's 4-byte word
// granularity.
const chunkBytes = 32

// wordDiff scans the pagemaps and produces spliced modified byte
// intervals in address order.
func (c *collector) wordDiff() []interval {
	sp := splicer{splice: c.splice}
	for _, mr := range c.seg.ModifiedRanges() {
		sp.begin(mr.Sub, mr.FirstPage<<arch.PageShift)
		for p := 0; p < mr.NumPages; p++ {
			twin := mr.Sub.Twin(mr.FirstPage + p)
			off := (mr.FirstPage + p) << arch.PageShift
			page := mr.Sub.Data[off : off+arch.PageSize]
			w0 := p * arch.PageWords
			for o := 0; o < arch.PageSize; o += chunkBytes {
				cur := page[o : o+chunkBytes : o+chunkBytes]
				old := twin[o : o+chunkBytes : o+chunkBytes]
				w := w0 + o/arch.WordBytes
				if u64(cur) == u64(old) && u64(cur[8:]) == u64(old[8:]) &&
					u64(cur[16:]) == u64(old[16:]) && u64(cur[24:]) == u64(old[24:]) {
					// The gap test only gets more true as w grows, so
					// testing the chunk's last word alone closes the
					// same runs as testing every word.
					sp.same(w + chunkBytes/arch.WordBytes - 1)
					continue
				}
				for i := 0; i < chunkBytes; i += 8 {
					if u64(cur[i:]) == u64(old[i:]) {
						sp.same(w + i/arch.WordBytes + 1)
						continue
					}
					for j := i; j < i+8; j += arch.WordBytes {
						if u32(cur[j:]) == u32(old[j:]) {
							sp.same(w + j/arch.WordBytes)
						} else {
							sp.changed(w + j/arch.WordBytes)
						}
					}
				}
			}
		}
		sp.flush()
	}
	return sp.out
}

func u64(b []byte) uint64 { return binary.NativeEndian.Uint64(b) }
func u32(b []byte) uint32 { return binary.NativeEndian.Uint32(b) }

// splicer turns a word-by-word changed/unchanged sequence over one
// modified range into intervals, absorbing gaps of at most splice
// unchanged words. Words are indexed from the range's first byte.
type splicer struct {
	out         []interval
	sub         *mem.SubSeg
	base        int // byte offset of word 0 within sub
	splice      int
	first, last int // open run's first and last changed word; first < 0 when none
}

func (s *splicer) begin(sub *mem.SubSeg, base int) {
	s.sub, s.base, s.first = sub, base, -1
}

func (s *splicer) changed(w int) {
	if s.first < 0 {
		s.first = w
	}
	s.last = w
}

func (s *splicer) same(w int) {
	if s.first >= 0 && w-s.last > s.splice {
		s.flush()
	}
}

func (s *splicer) flush() {
	if s.first >= 0 {
		s.out = append(s.out, interval{
			sub: s.sub,
			lo:  s.base + s.first*arch.WordBytes,
			hi:  s.base + (s.last+1)*arch.WordBytes,
		})
		s.first = -1
	}
}

// translateInterval maps one modified byte interval onto the blocks
// it overlaps and emits wire runs for each.
func (c *collector) translateInterval(iv interval) error {
	lo := iv.sub.Base + mem.Addr(iv.lo)
	hi := iv.sub.Base + mem.Addr(iv.hi)
	var firstErr error
	visit := func(b *mem.Block) bool {
		if b.Addr >= hi {
			return false
		}
		if b.Pending {
			return true // travels whole already
		}
		if firstErr = c.blockRuns(b, lo, hi); firstErr != nil {
			return false
		}
		return true
	}
	// Start with the block spanning lo (if any), then ascend.
	if b, ok := c.heap.BlockAt(lo); ok && b.Sub == iv.sub {
		if !visit(b) {
			return firstErr
		}
		iv.sub.AscendBlocks(b.Addr+1, func(nb *mem.Block) bool { return visit(nb) })
		return firstErr
	}
	iv.sub.AscendBlocks(lo, func(nb *mem.Block) bool { return visit(nb) })
	return firstErr
}

// blockRuns emits wire runs for the part of [lo, hi) that overlaps
// block b.
func (c *collector) blockRuns(b *mem.Block, lo, hi mem.Addr) error {
	rb0 := 0
	if lo > b.Addr {
		rb0 = int(lo - b.Addr)
	}
	rb1 := b.Size()
	if hi < b.End() {
		rb1 = int(hi - b.Addr)
	}
	if rb0 >= rb1 {
		return nil
	}
	l := b.Layout
	pc := l.PrimCount
	// Collect the unit ranges element by element, merging across
	// element boundaries when contiguous.
	u0, u1 := -1, -1
	emit := func() error {
		if u0 < 0 {
			return nil
		}
		err := c.emitRun(b, u0, u1)
		u0, u1 = -1, -1
		return err
	}
	for e := rb0 / l.Size; e <= (rb1-1)/l.Size; e++ {
		lb0 := rb0 - e*l.Size
		if lb0 < 0 {
			lb0 = 0
		}
		lb1 := rb1 - e*l.Size
		if lb1 > l.Size {
			lb1 = l.Size
		}
		p0, p1, ok := l.PrimSpan(lb0, lb1)
		if !ok {
			continue
		}
		g0, g1 := e*pc+p0, e*pc+p1
		if u1 == g0 {
			u1 = g1 // contiguous with previous element's span
			continue
		}
		if err := emit(); err != nil {
			return err
		}
		u0, u1 = g0, g1
	}
	return emit()
}

// emitRun translates units [u0, u1) of block b into one wire run.
func (c *collector) emitRun(b *mem.Block, u0, u1 int) error {
	data, err := c.translateUnits(b, u0, u1)
	if err != nil {
		return err
	}
	bd := c.blockDiff(b.Serial)
	bd.Runs = append(bd.Runs, wire.Run{
		Start: uint32(u0),
		Count: uint32(u1 - u0),
		Data:  data,
	})
	if c.opts.Stats != nil {
		c.opts.Stats.Units += u1 - u0
		c.opts.Stats.Bytes += len(data)
	}
	return nil
}

func (c *collector) blockDiff(serial uint32) *wire.BlockDiff {
	if i, ok := c.diffs[serial]; ok {
		return &c.out.Blocks[i]
	}
	c.out.Blocks = append(c.out.Blocks, wire.BlockDiff{Serial: serial})
	c.diffs[serial] = len(c.out.Blocks) - 1
	return &c.out.Blocks[len(c.out.Blocks)-1]
}

// fullBlockRun emits a single run covering all of b.
func (c *collector) fullBlockRun(b *mem.Block) error {
	start := time.Now()
	err := c.emitRun(b, 0, b.PrimCount())
	if c.opts.Stats != nil {
		c.opts.Stats.Translate += time.Since(start)
	}
	return err
}

// translateUnits converts units [u0, u1) of b from local format to
// canonical wire format.
func (c *collector) translateUnits(b *mem.Block, u0, u1 int) ([]byte, error) {
	view, err := c.heap.View(b.Addr, b.Size())
	if err != nil {
		return nil, err
	}
	l := b.Layout
	order := c.prof.Order
	start := len(c.arena)
	buf := c.arena
	err = forUnits(l, u0, u1, func(k types.Kind, strCap, absByte, n, stride int) error {
		switch k {
		case types.KindChar:
			for i := 0; i < n; i++ {
				buf = append(buf, view[absByte+i*stride])
			}
		case types.KindInt16:
			for i := 0; i < n; i++ {
				buf = wire.AppendU16(buf, order.Uint16(view[absByte+i*stride:]))
			}
		case types.KindInt32, types.KindFloat32:
			for i := 0; i < n; i++ {
				buf = wire.AppendU32(buf, order.Uint32(view[absByte+i*stride:]))
			}
		case types.KindInt64, types.KindFloat64:
			for i := 0; i < n; i++ {
				buf = wire.AppendU64(buf, order.Uint64(view[absByte+i*stride:]))
			}
		case types.KindString:
			for i := 0; i < n; i++ {
				s := cstr(view[absByte+i*stride : absByte+i*stride+strCap])
				buf = wire.AppendBytes(buf, s)
			}
		case types.KindPointer:
			if c.opts.Swizzle == nil {
				return errors.New("diff: segment contains pointers but no swizzler was provided")
			}
			for i := 0; i < n; i++ {
				var a mem.Addr
				if c.prof.WordSize == 4 {
					a = mem.Addr(order.Uint32(view[absByte+i*stride:]))
				} else {
					a = mem.Addr(order.Uint64(view[absByte+i*stride:]))
				}
				mip, err := c.opts.Swizzle(a)
				if err != nil {
					return fmt.Errorf("diff: swizzling %#x in block %d: %w", uint64(a), b.Serial, err)
				}
				buf = wire.AppendString(buf, mip)
			}
		default:
			return fmt.Errorf("diff: unexpected kind %v in walk", k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.arena = buf
	return buf[start:len(buf):len(buf)], nil
}

// cstr trims a fixed-capacity string cell at its NUL terminator.
func cstr(cell []byte) []byte {
	if i := bytes.IndexByte(cell, 0); i >= 0 {
		return cell[:i]
	}
	return cell
}

// forUnits iterates the units [u0, u1) of a block whose elements have
// layout l, invoking fn once per maximal same-step sub-run with the
// absolute byte offset of the first unit (relative to block start),
// the unit count, and the byte stride.
func forUnits(l *types.Layout, u0, u1 int, fn func(k types.Kind, strCap, absByte, n, stride int) error) error {
	if u0 >= u1 {
		return nil
	}
	pc := l.PrimCount
	// Uniform blocks — n elements of a single primitive — are one
	// arithmetic run; this is the common case for big arrays.
	if pc == 1 && len(l.Walk) == 1 {
		s := &l.Walk[0]
		return fn(s.Kind, s.Cap, u0*l.Size+s.ByteOff, u1-u0, l.Size)
	}
	// Locate the first unit's step once; afterwards advance
	// incrementally (next step, or wrap to the next element),
	// avoiding a binary search per run.
	e := u0 / pc
	p := u0 % pc
	si, ok := l.StepAtPrim(p)
	if !ok {
		return fmt.Errorf("diff: unit %d outside layout", u0)
	}
	for u0 < u1 {
		s := &l.Walk[si]
		within := p - s.PrimOff
		n := s.Count - within
		if rem := u1 - u0; n > rem {
			n = rem
		}
		// Steps never cross an element boundary.
		abs := e*l.Size + s.ByteOff + within*s.ByteStride
		if err := fn(s.Kind, s.Cap, abs, n, s.ByteStride); err != nil {
			return err
		}
		u0 += n
		p += n
		if p >= pc {
			p = 0
			e++
			si = 0
		} else if p >= s.PrimOff+s.Count {
			si++
		}
	}
	return nil
}
