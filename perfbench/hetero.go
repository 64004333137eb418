package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"interweave/internal/arch"
	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/server"
	"interweave/internal/types"
)

// hetero-bulk: a big-endian 32-bit client and a little-endian 64-bit
// client share about 1 MB of the paper's Figure 4 "mix" records. Each
// write changes a seeded tenth of the records, pointers included, so
// translation (twins, word diff, swizzling, wire conversion) does most
// of the work and the transport carries few, large frames.

const (
	bulkRecords = 3640 // ~1 MB of mix at the 288-byte x86-64 layout
	bulkSeg     = "srv0:7001/bulk"
	bulkStrings = 61 // distinct 256-capacity strings values cycle through
)

var (
	mixType = func() *types.Type {
		str256, _ := types.StringOf(256)
		str4, _ := types.StringOf(4)
		ptr, _ := types.PointerTo(types.Int32())
		t, err := types.StructOf("mix",
			types.Field{Name: "i", Type: types.Int32()},
			types.Field{Name: "d", Type: types.Float64()},
			types.Field{Name: "s", Type: str256},
			types.Field{Name: "t", Type: str4},
			types.Field{Name: "p", Type: ptr},
		)
		if err != nil {
			panic(err)
		}
		return t
	}()
	bulkLong = func() []string {
		out := make([]string, bulkStrings)
		for i := range out {
			out[i] = fmt.Sprintf("%03d-%s", i, strings.Repeat(string(rune('a'+i%26)), 180+i))
		}
		return out
	}()
)

// mixLayout is where the mix fields sit for one machine profile.
type mixLayout struct {
	size, i, d, s, t, p int
}

func layoutOf(prof *arch.Profile) mixLayout {
	l, err := types.Of(mixType, prof)
	if err != nil {
		panic(err)
	}
	off := func(name string) int {
		f, ok := l.Field(name)
		if !ok {
			panic("mix has no field " + name)
		}
		return f.ByteOff
	}
	return mixLayout{size: l.Size, i: off("i"), d: off("d"), s: off("s"), t: off("t"), p: off("p")}
}

// mixValue is what the write with tag stores in record r.
type mixValue struct {
	i      int32
	d      float64
	s, t   string
	target int // index into the targets block
}

func bulkValue(tag uint32, r int) mixValue {
	return mixValue{
		i:      int32(tag),
		d:      float64(tag) + float64(r)*0.25,
		s:      bulkLong[(int(tag)*7+r)%bulkStrings],
		t:      string([]byte{'a' + byte((int(tag)+r)%26), 'A' + byte(r%26), '0' + byte(tag%10)}),
		target: (int(tag) + r) % (bulkRecords + 1),
	}
}

// keptWrites is how many of its latest writes each writer keeps for
// its peer's read sections to verify against.
const keptWrites = 4

type bulkWrite struct {
	version uint32
	tag     uint32
	idx     []int32
}

type hetero struct {
	e      *env
	h      [2]*core.Segment
	lay    [2]mixLayout
	recs   [2]mem.Addr
	tgts   [2]mem.Addr
	rng    [2]*rand.Rand
	picked [2][]bool

	turnMu   sync.Mutex
	turnCond *sync.Cond
	turn     int
	stopped  bool

	own [2]uint32 // each client's newest committed version

	tag      atomic.Uint32
	mu       sync.Mutex
	byWriter [2][]bulkWrite // each writer's last few writes
	// The shadow model: the tag each record must hold, and the version
	// that wrote it (a later version wins whatever order writers
	// report in).
	shadowTag []uint32
	shadowVer []uint32
}

func setupHetero(e *env) (topology, error) {
	if _, err := e.serve("srv0:7001", server.Options{}); err != nil {
		return nil, err
	}
	w := &hetero{e: e, shadowTag: make([]uint32, bulkRecords), shadowVer: make([]uint32, bulkRecords)}
	w.turnCond = sync.NewCond(&w.turnMu)
	profs := [2]*arch.Profile{arch.Sparc(), arch.AMD64()}
	for i, prof := range profs {
		b, err := e.newClient(i, prof)
		if err != nil {
			return nil, err
		}
		w.lay[i] = layoutOf(prof)
		w.rng[i] = rand.New(rand.NewSource(e.seed*104729 + int64(i)))
		w.picked[i] = make([]bool, bulkRecords)
		if w.h[i], err = b.Open(bulkSeg); err != nil {
			return nil, err
		}
	}
	c0, c1 := e.clients[0], e.clients[1]
	if err := c0.WLock(w.h[0]); err != nil {
		return nil, err
	}
	recs, err := c0.Alloc(w.h[0], mixType, bulkRecords, "records")
	if err != nil {
		return nil, err
	}
	tgts, err := c0.Alloc(w.h[0], types.Int32(), bulkRecords+1, "targets")
	if err != nil {
		return nil, err
	}
	w.recs[0], w.tgts[0] = recs.Addr, tgts.Addr
	for k := 0; k <= bulkRecords; k++ {
		if err := c0.Heap().WriteI32(tgts.Addr+mem.Addr(4*k), int32(k)); err != nil {
			return nil, err
		}
	}
	for r := 0; r < bulkRecords; r++ {
		if err := w.store(c0, 0, r, 0); err != nil {
			return nil, err
		}
	}
	if err := c0.WUnlock(w.h[0]); err != nil {
		return nil, err
	}
	if err := c1.RLock(w.h[1]); err != nil {
		return nil, err
	}
	rb, ok1 := w.h[1].Mem().BlockByName("records")
	tb, ok2 := w.h[1].Mem().BlockByName("targets")
	if err := c1.RUnlock(w.h[1]); err != nil {
		return nil, err
	}
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%s: blocks missing after fetch", bulkSeg)
	}
	w.recs[1], w.tgts[1] = rb.Addr, tb.Addr
	// Warm up: two full turn cycles, so both copies and the server's
	// diff cache hold diffed versions.
	for i := 0; i < 2*len(turnOwner); i++ {
		if err := w.step(e.clients[turnOwner[w.turn]]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// store writes the tag's values into record r on client c's heap.
func (w *hetero) store(b *benchClient, c, r int, tag uint32) error {
	l, hp := w.lay[c], b.Heap()
	a := w.recs[c] + mem.Addr(r*l.size)
	v := bulkValue(tag, r)
	if err := hp.WriteI32(a+mem.Addr(l.i), v.i); err != nil {
		return err
	}
	if err := hp.WriteF64(a+mem.Addr(l.d), v.d); err != nil {
		return err
	}
	if err := hp.WriteCString(a+mem.Addr(l.s), 256, v.s); err != nil {
		return err
	}
	if err := hp.WriteCString(a+mem.Addr(l.t), 4, v.t); err != nil {
		return err
	}
	return hp.WritePtr(a+mem.Addr(l.p), w.tgts[c]+mem.Addr(4*v.target))
}

// verify checks that record r on a heap holds exactly some writer's
// values, and returns that writer's tag.
func verifyMix(hp *mem.Heap, l mixLayout, recs, tgts mem.Addr, r int) (uint32, error) {
	a := recs + mem.Addr(r*l.size)
	i, err := hp.ReadI32(a + mem.Addr(l.i))
	if err != nil {
		return 0, err
	}
	tag := uint32(i)
	want := bulkValue(tag, r)
	d, err := hp.ReadF64(a + mem.Addr(l.d))
	if err != nil {
		return 0, err
	}
	s, err := hp.ReadCString(a+mem.Addr(l.s), 256)
	if err != nil {
		return 0, err
	}
	t, err := hp.ReadCString(a+mem.Addr(l.t), 4)
	if err != nil {
		return 0, err
	}
	p, err := hp.ReadPtr(a + mem.Addr(l.p))
	if err != nil {
		return 0, err
	}
	if d != want.d || s != want.s || t != want.t || p != tgts+mem.Addr(4*want.target) {
		return tag, fmt.Errorf("record %d is torn or mistranslated: tag %d, d=%v s=%.8q t=%q ptr=%#x, want d=%v s=%.8q t=%q ptr=%#x",
			r, tag, d, s, t, p, want.d, want.s, want.t, tgts+mem.Addr(4*want.target))
	}
	return tag, nil
}

// step runs the section whose turn it is. The two clients take turns
// — A writes, B reads, B writes, A reads — so every read section
// fetches and applies the write its peer just made, and every write
// section diffs and translates a tenth of the records.
func (w *hetero) step(b *benchClient) error {
	c := b.idx
	w.turnMu.Lock()
	for !w.stopped && turnOwner[w.turn] != c {
		w.turnCond.Wait()
	}
	if w.stopped {
		w.turnMu.Unlock()
		return errStopped
	}
	write := w.turn%2 == 0
	w.turnMu.Unlock()
	var err error
	if write {
		err = w.write(b, c)
	} else {
		err = w.read(b, c)
	}
	w.turnMu.Lock()
	w.turn = (w.turn + 1) % len(turnOwner)
	w.turnCond.Broadcast()
	w.turnMu.Unlock()
	return err
}

// turnOwner is which client owns each turn of the cycle; even turns
// write, odd turns read.
var turnOwner = [4]int{0, 1, 1, 0}

// stopLoad releases a client waiting for its turn once the timed
// phase is over.
func (w *hetero) stopLoad() {
	w.turnMu.Lock()
	w.stopped = true
	w.turnCond.Broadcast()
	w.turnMu.Unlock()
}

func (w *hetero) write(b *benchClient, c int) error {
	rng, picked := w.rng[c], w.picked[c]
	idx := make([]int32, 0, bulkRecords/10)
	for len(idx) < cap(idx) {
		r := rng.Intn(bulkRecords)
		if !picked[r] {
			picked[r] = true
			idx = append(idx, int32(r))
		}
	}
	for _, r := range idx {
		picked[r] = false
	}
	h := w.h[c]
	b.begin()
	err := b.wlock(h)
	var tag uint32
	if err == nil {
		tag = w.tag.Add(1)
		m := b.memBegin()
		for _, r := range idx {
			if err = w.store(b, c, int(r), tag); err != nil {
				break
			}
		}
		b.memEnd(m, true)
		if uerr := b.wunlock(h); err == nil {
			err = uerr
		}
	}
	if err = b.end(true, err); err != nil {
		return err
	}
	bw := bulkWrite{version: h.Version(), tag: tag, idx: idx}
	w.own[c] = bw.version
	w.mu.Lock()
	for _, r := range idx {
		if bw.version > w.shadowVer[r] {
			w.shadowTag[r], w.shadowVer[r] = tag, bw.version
		}
	}
	if len(w.byWriter[c]) == keptWrites {
		w.byWriter[c] = append(w.byWriter[c][:0], w.byWriter[c][1:]...)
	}
	w.byWriter[c] = append(w.byWriter[c], bw)
	w.mu.Unlock()
	return nil
}

// read verifies the records of the newest peer write its copy holds:
// each must carry a consistent write at least that new. The copy must
// also be at least as new as the client's own last write and the
// newest version it was notified of before the read began.
func (w *hetero) read(b *benchClient, c int) error {
	h := w.h[c]
	floor := max(w.own[c], w.e.notified(c, bulkSeg))
	b.begin()
	err := b.rlock(h)
	if err == nil {
		v := h.Version()
		if v < floor {
			err = fmt.Errorf("full-coherence read at version %d after version %d was written or notified", v, floor)
		}
		w.mu.Lock()
		var last bulkWrite
		peer := w.byWriter[1-c]
		for i := len(peer) - 1; i >= 0; i-- {
			if peer[i].version <= v {
				last = peer[i]
				break
			}
		}
		w.mu.Unlock()
		m := b.memBegin()
		for _, r := range last.idx {
			if err != nil {
				break
			}
			var tag uint32
			tag, err = verifyMix(b.Heap(), w.lay[c], w.recs[c], w.tgts[c], int(r))
			if err == nil && tag < last.tag {
				err = fmt.Errorf("record %d holds write %d at version %d, older than the peer's write %d at version %d", r, tag, v, last.tag, last.version)
			}
		}
		b.memEnd(m, false)
		if uerr := b.runlock(h); err == nil {
			err = uerr
		}
	}
	return b.end(false, err)
}

// shadow is a copy of the tag every record must hold.
func (w *hetero) shadow() []uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint32(nil), w.shadowTag...)
}

func (w *hetero) check() error { return w.checkAgainst(w.shadow()) }

// checkAgainst has a third machine, 64-bit big-endian, map the segment
// through machine-independent pointers and compare every record with
// the shadow model.
func (w *hetero) checkAgainst(tags []uint32) error {
	b, err := w.e.newClient(2, arch.MIPS64())
	if err != nil {
		return err
	}
	recs, err := b.MIPToPtr(bulkSeg + "#records")
	if err != nil {
		return err
	}
	tgts, err := b.MIPToPtr(bulkSeg + "#targets")
	if err != nil {
		return err
	}
	h, err := b.Open(bulkSeg)
	if err != nil {
		return err
	}
	if err := b.RLock(h); err != nil {
		return err
	}
	defer func() { _ = b.RUnlock(h) }()
	lay := layoutOf(arch.MIPS64())
	for r, want := range tags {
		tag, err := verifyMix(b.Heap(), lay, recs, tgts, r)
		if err != nil {
			return fmt.Errorf("mips64 reader: %w", err)
		}
		if tag != want {
			return fmt.Errorf("mips64 reader: record %d holds write %d, shadow model has %d", r, tag, want)
		}
	}
	return nil
}
