package diff

// Oracle tests for collection's fast paths: the chunked twin
// comparison against the per-word loop it replaced, and the shared
// translation arena against aliasing between runs.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
)

// referenceWordDiff is the plain word-by-word twin comparison: a twin
// lookup and two 4-byte loads per word, and the splice test after
// every unchanged word.
func referenceWordDiff(seg *mem.SegMem, splice int) []interval {
	var out []interval
	for _, mr := range seg.ModifiedRanges() {
		ss := mr.Sub
		base := mr.FirstPage << arch.PageShift
		words := mr.NumPages * arch.PageWords
		runStart := -1
		lastChanged := -1
		flush := func() {
			if runStart >= 0 {
				out = append(out, interval{
					sub: ss,
					lo:  base + runStart*arch.WordBytes,
					hi:  base + (lastChanged+1)*arch.WordBytes,
				})
				runStart = -1
			}
		}
		for w := 0; w < words; w++ {
			pg := mr.FirstPage + (w / arch.PageWords)
			twin := ss.Twin(pg)
			off := (base + w*arch.WordBytes) & (arch.PageSize - 1)
			cur := binary.NativeEndian.Uint32(ss.Data[base+w*arch.WordBytes:])
			old := binary.NativeEndian.Uint32(twin[off:])
			if cur == old {
				if runStart >= 0 && w-lastChanged > splice {
					flush()
				}
				continue
			}
			if runStart < 0 {
				runStart = w
			}
			lastChanged = w
		}
		flush()
	}
	return out
}

// edgeAddr picks a random word inside [lo, hi), most often the first
// or last word of its 32-byte chunk or of its page.
func edgeAddr(rng *rand.Rand, lo, hi mem.Addr) mem.Addr {
	a := lo + mem.Addr(rng.Int63n(int64(hi-lo)))
	switch rng.Intn(5) {
	case 0:
		a &^= chunkBytes - 1 // first word of a chunk
	case 1:
		a = a&^(chunkBytes-1) + chunkBytes - arch.WordBytes // last word of a chunk
	case 2:
		a &^= arch.PageSize - 1 // first word of a page
	case 3:
		a = a&^(arch.PageSize-1) + arch.PageSize - arch.WordBytes // last word of a page
	default:
		a &^= arch.WordBytes - 1
	}
	return a
}

func TestChunkedWordDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1409))
	var multiSub, multiPage int
	for trial := 0; trial < 80; trial++ {
		c := newClient(t, arch.AMD64(), "h/s")
		var blocks []*mem.Block
		for i := 0; i < 3; i++ {
			n := (1+rng.Intn(3))*arch.PageWords + rng.Intn(100)
			b := c.alloc(t, types.Int32(), 1, n, "")
			for j := 0; j < n; j++ {
				mustOK(t, c.heap.WriteI32(b.Addr+mem.Addr(4*j), rng.Int31n(4)))
			}
			blocks = append(blocks, b)
		}
		c.seg.WriteProtect()
		for k := 1 + rng.Intn(60); k > 0; k-- {
			b := blocks[rng.Intn(len(blocks))]
			a := edgeAddr(rng, b.Addr, b.End())
			if a < b.Addr || a+arch.WordBytes > b.End() {
				continue
			}
			switch rng.Intn(4) {
			case 0: // rewrite the same value: a twin, but no change
				v, err := c.heap.ReadI32(a)
				mustOK(t, err)
				mustOK(t, c.heap.WriteI32(a, v))
			case 1: // a sub-word change
				mustOK(t, c.heap.WriteU8(a+mem.Addr(rng.Intn(arch.WordBytes)), byte(rng.Intn(3))))
			default:
				mustOK(t, c.heap.WriteI32(a, rng.Int31n(4)))
			}
		}
		ranges := c.seg.ModifiedRanges()
		for i, mr := range ranges {
			if mr.NumPages > 1 {
				multiPage++
			}
			if i > 0 && mr.Sub != ranges[0].Sub {
				multiSub++
			}
		}
		for _, splice := range []int{0, 1, 2, 3, 7} {
			got := (&collector{seg: c.seg, splice: splice}).wordDiff()
			want := referenceWordDiff(c.seg, splice)
			if len(got) != len(want) {
				t.Fatalf("trial %d splice %d: %d intervals, reference %d\n got  %v\n want %v", trial, splice, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d splice %d: interval %d = %+v, reference %+v", trial, splice, i, got[i], want[i])
				}
			}
		}
	}
	if multiSub == 0 || multiPage == 0 {
		t.Fatalf("inputs never covered several subsegments (%d) or multi-page ranges (%d)", multiSub, multiPage)
	}
}

// TestRunDataCapacityCapped checks that every run's Data is capped at
// its own length, so appending to one run copies instead of writing
// over the next run in the shared arena.
func TestRunDataCapacityCapped(t *testing.T) {
	c := newClient(t, arch.AMD64(), "h/s")
	b := c.alloc(t, types.Int32(), 1, 64, "a")
	transfer(t, c, newClient(t, arch.Sparc(), "h/s"), CollectOptions{Version: 1})
	c.seg.WriteProtect()
	for _, i := range []int{2, 20, 40} {
		mustOK(t, c.heap.WriteI32(b.Addr+mem.Addr(4*i), int32(i+1)))
	}
	d, err := CollectSegment(c.seg, CollectOptions{Version: 2})
	mustOK(t, err)
	runs := d.Blocks[0].Runs
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	before := make([][]byte, len(runs))
	for i, r := range runs {
		if cap(r.Data) != len(r.Data) {
			t.Errorf("run %d: cap %d > len %d", i, cap(r.Data), len(r.Data))
		}
		before[i] = bytes.Clone(r.Data)
	}
	for i := range runs {
		_ = append(runs[i].Data, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	for i, r := range runs {
		if !bytes.Equal(r.Data, before[i]) {
			t.Errorf("run %d changed after appending to its neighbour: %x, was %x", i, r.Data, before[i])
		}
	}
}
