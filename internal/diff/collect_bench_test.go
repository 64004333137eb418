package diff

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
)

// benchMixRecords is ~1 MB of Figure 4 mix records at the 288-byte
// x86-64 layout.
const benchMixRecords = 3640

// fig4MixType is Figure 4's mix record: an int, a double, a 256-byte
// string, a 4-byte string and a pointer to int.
func fig4MixType(b *testing.B) *types.Type {
	s256, err := types.StringOf(256)
	if err != nil {
		b.Fatal(err)
	}
	s4, err := types.StringOf(4)
	if err != nil {
		b.Fatal(err)
	}
	pi, err := types.PointerTo(types.Int32())
	if err != nil {
		b.Fatal(err)
	}
	mix, err := types.StructOf("mix",
		types.Field{Name: "i", Type: types.Int32()},
		types.Field{Name: "d", Type: types.Float64()},
		types.Field{Name: "s", Type: s256},
		types.Field{Name: "t", Type: s4},
		types.Field{Name: "p", Type: pi},
	)
	if err != nil {
		b.Fatal(err)
	}
	return mix
}

// BenchmarkCollectSegment times one write section of the hetero-bulk
// pattern on a 1 MB block of Figure 4 mix records: write-protect,
// rewrite every field of 10% of the records, collect the diff (twin
// comparison, translation, swizzling) and drop the twins.
func BenchmarkCollectSegment(b *testing.B) {
	for _, prof := range []*arch.Profile{arch.Sparc(), arch.AMD64()} {
		b.Run(prof.Name, func(b *testing.B) { benchCollectMix(b, prof) })
	}
}

func benchCollectMix(b *testing.B, prof *arch.Profile) {
	h, err := mem.NewHeap(prof)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := h.NewSegment("h:1/bulk")
	if err != nil {
		b.Fatal(err)
	}
	alloc := func(typ *types.Type, n int, name string) *mem.Block {
		l, err := types.Of(typ, prof)
		if err != nil {
			b.Fatal(err)
		}
		blk, err := seg.Alloc(l, n, name)
		if err != nil {
			b.Fatal(err)
		}
		return blk
	}
	recs := alloc(fig4MixType(b), benchMixRecords, "records")
	tgts := alloc(types.Int32(), benchMixRecords+1, "targets")
	walk := recs.Layout.Walk
	if len(walk) != 5 || walk[2].Cap != 256 || walk[3].Cap != 4 {
		b.Fatalf("unexpected mix layout %+v", walk)
	}
	// Two value sets per record; each rewrite flips a record to the
	// other set, so every field changes.
	long := strings.Repeat("x", 200)
	cells := [2][][]byte{}
	for t := range cells {
		for r := 0; r < benchMixRecords; r++ {
			cell := make([]byte, 256)
			copy(cell, fmt.Sprintf("record-%d-set-%d-%s", r, t, long))
			cells[t] = append(cells[t], cell)
		}
	}
	set := make([]int, benchMixRecords)
	store := func(r int) {
		t := set[r]
		a := recs.Addr + mem.Addr(r*recs.Layout.Size)
		err := h.WriteI32(a+mem.Addr(walk[0].ByteOff), int32(2*r+t))
		if err == nil {
			err = h.WriteF64(a+mem.Addr(walk[1].ByteOff), float64(r)+0.5*float64(t))
		}
		if err == nil {
			err = h.Write(a+mem.Addr(walk[2].ByteOff), cells[t][r])
		}
		if err == nil {
			err = h.Write(a+mem.Addr(walk[3].ByteOff), []byte{'a' + byte(t), 'a' + byte(r%26), 0, 0})
		}
		if err == nil {
			err = h.WritePtr(a+mem.Addr(walk[4].ByteOff), tgts.Addr+mem.Addr(4*((r+t)%(benchMixRecords+1))))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < benchMixRecords; r++ {
		store(r)
	}
	c := &client{heap: h, seg: seg}
	opts := CollectOptions{Swizzle: c.swizzler()}
	if _, err := CollectSegment(seg, opts); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.WriteProtect()
		for k := 0; k < benchMixRecords/10; k++ {
			r := rng.Intn(benchMixRecords)
			set[r] ^= 1
			store(r)
		}
		d, err := CollectSegment(seg, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchDiffSink = d.Units()
		seg.DropTwins()
		seg.Unprotect()
	}
}

var benchDiffSink int
