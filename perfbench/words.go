package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/types"
)

// wordStore is the generator behind hot-replicated and cold-sweep:
// segments of one int32 array each, written a few words at a time and
// read one 64-word record at a time. Every word a writer stores names
// its writer's tag and its own index, so a reader can check any word
// it sees, and the write log replays into the exact expected image.
type wordStore struct {
	names     []string
	words     int // int32 words per segment
	recWords  int // words in a record: one read verifies one record
	writeFrac float64
	choose    [2]func() int

	e    *env
	h    [2][]*core.Segment
	addr [2][]mem.Addr
	rng  [2]*rand.Rand
	own  [2][]uint32 // newest version each client wrote, per segment

	tag       atomic.Uint32
	committed []atomic.Uint32

	mu  sync.Mutex
	log []wordWrite
}

// maxWrite is the most words one write changes.
const maxWrite = 4

type wordWrite struct {
	seg     int
	version uint32
	tag     uint32
	n       int
	idx     [maxWrite]uint16
}

func newWordStore(e *env, names []string, words, recWords int, writeFrac float64) *wordStore {
	ws := &wordStore{e: e, names: names, words: words, recWords: recWords, writeFrac: writeFrac,
		committed: make([]atomic.Uint32, len(names))}
	for i := range ws.h {
		ws.h[i] = make([]*core.Segment, len(names))
		ws.addr[i] = make([]mem.Addr, len(names))
		ws.own[i] = make([]uint32, len(names))
		ws.rng[i] = rand.New(rand.NewSource(e.seed*7919 + int64(i)))
	}
	return ws
}

// wordValue is what the write with tag stores at word w.
func (ws *wordStore) wordValue(tag uint32, w int) int32 {
	return int32(tag*uint32(ws.words) + uint32(w))
}

func (ws *wordStore) arrayType() *types.Type {
	t, err := types.ArrayOf(types.Int32(), ws.words)
	if err != nil {
		panic(err)
	}
	return t
}

// preload creates every segment through c0 and fetches each into c1.
func (ws *wordStore) preload(c0, c1 *benchClient) error {
	at := ws.arrayType()
	for s, name := range ws.names {
		h, err := c0.Open(name)
		if err != nil {
			return err
		}
		if err := c0.WLock(h); err != nil {
			return err
		}
		blk, err := c0.Alloc(h, at, 1, "data")
		if err != nil {
			return err
		}
		for w := 0; w < ws.words; w++ {
			if err := c0.Heap().WriteI32(blk.Addr+mem.Addr(4*w), ws.wordValue(0, w)); err != nil {
				return err
			}
		}
		if err := c0.WUnlock(h); err != nil {
			return err
		}
		ws.h[0][s], ws.addr[0][s] = h, blk.Addr
		ws.committed[s].Store(h.Version())
	}
	for s, name := range ws.names {
		h, err := c1.Open(name)
		if err != nil {
			return err
		}
		if err := c1.RLock(h); err != nil {
			return err
		}
		blk, ok := h.Mem().BlockByName("data")
		if err := c1.RUnlock(h); err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: block data missing after fetch", name)
		}
		ws.h[1][s], ws.addr[1][s] = h, blk.Addr
	}
	return nil
}

// step runs one write or read critical section for b.
func (ws *wordStore) step(b *benchClient) error {
	c := b.idx
	rng := ws.rng[c]
	s := ws.choose[c]()
	h, base := ws.h[c][s], ws.addr[c][s]
	rec := rng.Intn(ws.words / ws.recWords)
	if rng.Float64() < ws.writeFrac {
		var w wordWrite
		w.seg = s
		for n := 1 + rng.Intn(maxWrite); w.n < n; {
			wi := uint16(rec*ws.recWords + rng.Intn(ws.recWords))
			dup := false
			for _, x := range w.idx[:w.n] {
				dup = dup || x == wi
			}
			if !dup {
				w.idx[w.n] = wi
				w.n++
			}
		}
		b.begin()
		err := b.wlock(h)
		if err == nil {
			w.tag = ws.tag.Add(1)
			m := b.memBegin()
			for _, wi := range w.idx[:w.n] {
				if err = b.Heap().WriteI32(base+mem.Addr(4*int(wi)), ws.wordValue(w.tag, int(wi))); err != nil {
					break
				}
			}
			b.memEnd(m, true)
			if uerr := b.wunlock(h); err == nil {
				err = uerr
			}
		}
		if err == nil {
			w.version = h.Version()
			storeMax(&ws.committed[s], w.version)
			ws.own[c][s] = w.version
		}
		err = b.end(true, err)
		if err == nil {
			ws.mu.Lock()
			ws.log = append(ws.log, w)
			ws.mu.Unlock()
		}
		return err
	}
	floor := max(ws.own[c][s], ws.e.notified(c, ws.names[s]))
	b.begin()
	err := b.rlock(h)
	if err == nil {
		if v := h.Version(); v < floor {
			err = fmt.Errorf("%s: full-coherence read at version %d after version %d was written or notified", ws.names[s], v, floor)
		}
		m := b.memBegin()
		for w := rec * ws.recWords; err == nil && w < (rec+1)*ws.recWords; w++ {
			var v int32
			v, err = b.Heap().ReadI32(base + mem.Addr(4*w))
			if err == nil && int(uint32(v)%uint32(ws.words)) != w {
				err = fmt.Errorf("%s word %d holds %#x, which no writer stores there", ws.names[s], w, v)
			}
		}
		b.memEnd(m, false)
		if uerr := b.runlock(h); err == nil {
			err = uerr
		}
	}
	return b.end(false, err)
}

// shadow replays the write log into the image every segment must
// hold, and the version it must be at.
func (ws *wordStore) shadow() ([][]int32, []uint32) {
	ws.mu.Lock()
	log := append([]wordWrite(nil), ws.log...)
	ws.mu.Unlock()
	sort.Slice(log, func(i, j int) bool {
		if log[i].seg != log[j].seg {
			return log[i].seg < log[j].seg
		}
		return log[i].version < log[j].version
	})
	img := make([][]int32, len(ws.names))
	for s := range img {
		img[s] = make([]int32, ws.words)
		for w := range img[s] {
			img[s][w] = ws.wordValue(0, w)
		}
	}
	for _, w := range log {
		for _, wi := range w.idx[:w.n] {
			img[w.seg][wi] = ws.wordValue(w.tag, int(wi))
		}
	}
	vers := make([]uint32, len(ws.names))
	for s := range vers {
		vers[s] = ws.committed[s].Load()
	}
	return img, vers
}

// checkAgainst reads every segment through a fresh client and compares
// it, word for word and version for version, with the shadow.
func (ws *wordStore) checkAgainst(c *core.Client, img [][]int32, vers []uint32) error {
	for s, name := range ws.names {
		h, err := c.Open(name)
		if err != nil {
			return err
		}
		if err := c.RLock(h); err != nil {
			return err
		}
		blk, ok := h.Mem().BlockByName("data")
		if !ok {
			_ = c.RUnlock(h)
			return fmt.Errorf("%s: block data missing", name)
		}
		if h.Version() != vers[s] {
			_ = c.RUnlock(h)
			return fmt.Errorf("%s: version %d, last committed %d", name, h.Version(), vers[s])
		}
		for w := 0; w < ws.words; w++ {
			v, err := c.Heap().ReadI32(blk.Addr + mem.Addr(4*w))
			if err != nil {
				_ = c.RUnlock(h)
				return err
			}
			if v != img[s][w] {
				_ = c.RUnlock(h)
				return fmt.Errorf("%s word %d = %#x, shadow model has %#x", name, w, v, img[s][w])
			}
		}
		if err := c.RUnlock(h); err != nil {
			return err
		}
	}
	return nil
}

func storeMax(a *atomic.Uint32, v uint32) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}
