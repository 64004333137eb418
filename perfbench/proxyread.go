package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/proxy"
	"interweave/internal/server"
	"interweave/internal/types"
)

// proxy-read: both clients reach an in-memory origin through one proxy
// tier. Nine ops in ten read one record under Delta(2) coherence, so
// the proxy's mirror, its notify-driven pulls and the clients'
// freshness rules do the work; the rest write one record, forwarded
// upstream.

const (
	prSegs      = 16
	prRecords   = 256
	prReadFrac  = 0.9
	prDelta     = 2
	prOrigin    = "origin:7001"
	prProxyAddr = "proxy:7002"
)

var prType = func() *types.Type {
	str24, _ := types.StringOf(24)
	t, err := types.StructOf("rec",
		types.Field{Name: "a", Type: types.Int32()},
		types.Field{Name: "b", Type: types.Float64()},
		types.Field{Name: "c", Type: types.Int64()},
		types.Field{Name: "s", Type: str24},
	)
	if err != nil {
		panic(err)
	}
	return t
}()

type prLayout struct{ size, a, b, c, s int }

func prLayoutOf(prof *arch.Profile) prLayout {
	l, err := types.Of(prType, prof)
	if err != nil {
		panic(err)
	}
	off := func(name string) int {
		f, _ := l.Field(name)
		return f.ByteOff
	}
	return prLayout{size: l.Size, a: off("a"), b: off("b"), c: off("c"), s: off("s")}
}

// prStrings are the string field's values, indexed by (tag+record).
var prStrings = func() []string {
	out := make([]string, 97)
	for i := range out {
		out[i] = fmt.Sprintf("rec-%02d-%08x", i, uint32(i)*2654435761)
	}
	return out
}()

type proxyRead struct {
	e     *env
	names []string
	h     [2][]*core.Segment
	recs  [2][]mem.Addr
	lay   [2]prLayout
	rng   [2]*rand.Rand
	seen  [2][]uint32 // newest version each client read, per segment
	own   [2][]uint32 // newest version each client wrote, per segment

	beyondDelta atomic.Int64 // reads more than Delta behind a committed version

	tag        atomic.Uint32
	committed  []atomic.Uint32
	violations atomic.Int64
	firstBad   atomic.Value

	mu        sync.Mutex
	shadowTag [][]uint32 // the tag each record must hold
	shadowVer [][]uint32 // the version that wrote it
}

func setupProxyRead(e *env) (topology, error) {
	if _, err := e.serve(prOrigin, server.Options{}); err != nil {
		return nil, err
	}
	if _, err := e.serveProxy(prProxyAddr, proxy.Options{Upstream: prOrigin, Name: "bench-proxy"}); err != nil {
		return nil, err
	}
	w := &proxyRead{e: e, committed: make([]atomic.Uint32, prSegs)}
	for s := 0; s < prSegs; s++ {
		w.names = append(w.names, fmt.Sprintf("%s/pr-%02d", prOrigin, s))
		w.shadowTag = append(w.shadowTag, make([]uint32, prRecords))
		w.shadowVer = append(w.shadowVer, make([]uint32, prRecords))
	}
	profs := [2]*arch.Profile{arch.AMD64(), arch.X86()}
	for i, prof := range profs {
		b, err := e.newClient(i, prof)
		if err != nil {
			return nil, err
		}
		w.lay[i] = prLayoutOf(prof)
		w.rng[i] = rand.New(rand.NewSource(e.seed*15485863 + int64(i)))
		w.seen[i] = make([]uint32, prSegs)
		w.own[i] = make([]uint32, prSegs)
		w.h[i] = make([]*core.Segment, prSegs)
		w.recs[i] = make([]mem.Addr, prSegs)
		for s, name := range w.names {
			b.SeedRoute(name, prProxyAddr)
			h, err := b.Open(name)
			if err != nil {
				return nil, err
			}
			if err := b.SetPolicy(h, coherence.Delta(prDelta)); err != nil {
				return nil, err
			}
			w.h[i][s] = h
		}
	}
	c0, c1 := e.clients[0], e.clients[1]
	for s := range w.names {
		h := w.h[0][s]
		if err := c0.WLock(h); err != nil {
			return nil, err
		}
		blk, err := c0.Alloc(h, prType, prRecords, "recs")
		if err != nil {
			return nil, err
		}
		w.recs[0][s] = blk.Addr
		for r := 0; r < prRecords; r++ {
			if err := w.store(c0, s, r, 0); err != nil {
				return nil, err
			}
		}
		if err := c0.WUnlock(h); err != nil {
			return nil, err
		}
		w.committed[s].Store(h.Version())
	}
	for s := range w.names {
		h := w.h[1][s]
		if err := c1.RLock(h); err != nil {
			return nil, err
		}
		blk, ok := h.Mem().BlockByName("recs")
		if err := c1.RUnlock(h); err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%s: block recs missing after fetch", w.names[s])
		}
		w.recs[1][s] = blk.Addr
	}
	// Warm up: every client writes and then reads every segment once,
	// so both clients hold current copies and the proxy mirrors and
	// upstream subscriptions all exist.
	for s := range w.names {
		for _, b := range e.clients {
			if err := w.write(b, s, w.rng[b.idx].Intn(prRecords)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		for _, b := range e.clients {
			if err := w.read(b, s, w.rng[b.idx].Intn(prRecords)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return w, nil
}

func prValue(tag uint32, r int) (int32, float64, int64, string) {
	return int32(tag), float64(tag)*0.5 + float64(r), int64(tag)<<20 | int64(r), prStrings[(int(tag)+r)%len(prStrings)]
}

func (w *proxyRead) store(b *benchClient, s, r int, tag uint32) error {
	l, hp := w.lay[b.idx], b.Heap()
	a := w.recs[b.idx][s] + mem.Addr(r*l.size)
	va, vb, vc, vs := prValue(tag, r)
	if err := hp.WriteI32(a+mem.Addr(l.a), va); err != nil {
		return err
	}
	if err := hp.WriteF64(a+mem.Addr(l.b), vb); err != nil {
		return err
	}
	if err := hp.WriteI64(a+mem.Addr(l.c), vc); err != nil {
		return err
	}
	return hp.WriteCString(a+mem.Addr(l.s), 24, vs)
}

// load reads record r and checks every field against the tag in a.
func (w *proxyRead) load(hp *mem.Heap, l prLayout, base mem.Addr, r int) (uint32, error) {
	a := base + mem.Addr(r*l.size)
	va, err := hp.ReadI32(a + mem.Addr(l.a))
	if err != nil {
		return 0, err
	}
	tag := uint32(va)
	_, wb, wc, ws := prValue(tag, r)
	vb, err := hp.ReadF64(a + mem.Addr(l.b))
	if err != nil {
		return 0, err
	}
	vc, err := hp.ReadI64(a + mem.Addr(l.c))
	if err != nil {
		return 0, err
	}
	vs, err := hp.ReadCString(a+mem.Addr(l.s), 24)
	if err != nil {
		return 0, err
	}
	if vb != wb || vc != wc || vs != ws {
		return tag, fmt.Errorf("record %d is torn: tag %d, b=%v c=%#x s=%q", r, tag, vb, vc, vs)
	}
	return tag, nil
}

func (w *proxyRead) beyondDeltaReads() int64 { return w.beyondDelta.Load() }

func (w *proxyRead) step(b *benchClient) error {
	rng := w.rng[b.idx]
	s, r := rng.Intn(prSegs), rng.Intn(prRecords)
	if rng.Float64() < prReadFrac {
		return w.read(b, s, r)
	}
	return w.write(b, s, r)
}

func (w *proxyRead) write(b *benchClient, s, r int) error {
	h := w.h[b.idx][s]
	b.begin()
	err := b.wlock(h)
	var tag uint32
	if err == nil {
		tag = w.tag.Add(1)
		m := b.memBegin()
		err = w.store(b, s, r, tag)
		b.memEnd(m, true)
		if uerr := b.wunlock(h); err == nil {
			err = uerr
		}
	}
	if err = b.end(true, err); err != nil {
		return err
	}
	v := h.Version()
	storeMax(&w.committed[s], v)
	w.own[b.idx][s] = v
	w.mu.Lock()
	if v > w.shadowVer[s][r] {
		w.shadowTag[s][r], w.shadowVer[s][r] = tag, v
	}
	w.mu.Unlock()
	return nil
}

// read checks the coherence contract on every read. Versions never go
// back for a client; a client reads its own writes; and the copy is at
// most Delta versions behind the newest version the client had been
// notified of before the read began — notifications are how the
// protocol tells a Delta reader that its bound is exceeded. Reads more
// than Delta behind the newest version committed anywhere before the
// read began are counted, not failed: a notification still in flight
// cannot have reached the reader (README.md, "proxy-read").
func (w *proxyRead) read(b *benchClient, s, r int) error {
	c := b.idx
	h := w.h[c][s]
	committed := w.committed[s].Load()
	notified := w.e.notified(c, w.names[s])
	own := w.own[c][s]
	b.begin()
	err := b.rlock(h)
	if err == nil {
		m := b.memBegin()
		_, err = w.load(b.Heap(), w.lay[c], w.recs[c][s], r)
		b.memEnd(m, false)
		v := h.Version()
		switch {
		case err != nil:
		case v < w.seen[c][s]:
			err = fmt.Errorf("%s: version went back from %d to %d", w.names[s], w.seen[c][s], v)
		case v < own:
			err = fmt.Errorf("%s: read version %d after writing version %d", w.names[s], v, own)
		case v+prDelta < notified:
			err = fmt.Errorf("%s: read version %d, more than %d behind notified version %d", w.names[s], v, prDelta, notified)
		}
		if v+prDelta < committed {
			w.beyondDelta.Add(1)
		}
		if v > w.seen[c][s] {
			w.seen[c][s] = v
		}
		if err != nil {
			w.violations.Add(1)
			w.firstBad.CompareAndSwap(nil, err.Error())
		}
		if uerr := b.runlock(h); err == nil {
			err = uerr
		}
	}
	return b.end(false, err)
}

// shadow is a copy of the tag every record must hold.
func (w *proxyRead) shadow() [][]uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	tags := make([][]uint32, prSegs)
	for s := range tags {
		tags[s] = append([]uint32(nil), w.shadowTag[s]...)
	}
	return tags
}

func (w *proxyRead) check() error { return w.checkAgainst(w.shadow()) }

// checkAgainst fails on any coherence violation seen during the run,
// then reads every record straight from the origin and compares it
// with the shadow model.
func (w *proxyRead) checkAgainst(tags [][]uint32) error {
	if n := w.violations.Load(); n > 0 {
		return fmt.Errorf("%d reads broke the coherence contract; first: %v", n, w.firstBad.Load())
	}
	b, err := w.e.newClient(2, arch.AMD64())
	if err != nil {
		return err
	}
	lay := prLayoutOf(arch.AMD64())
	for s, name := range w.names {
		h, err := b.Open(name)
		if err != nil {
			return err
		}
		if err := b.RLock(h); err != nil {
			return err
		}
		blk, ok := h.Mem().BlockByName("recs")
		if !ok {
			_ = b.RUnlock(h)
			return fmt.Errorf("%s: block recs missing", name)
		}
		for r := 0; r < prRecords; r++ {
			tag, err := w.load(b.Heap(), lay, blk.Addr, r)
			if err == nil && tag != tags[s][r] {
				err = fmt.Errorf("%s record %d holds write %d, shadow model has %d", name, r, tag, tags[s][r])
			}
			if err != nil {
				_ = b.RUnlock(h)
				return err
			}
		}
		if err := b.RUnlock(h); err != nil {
			return err
		}
	}
	return nil
}
