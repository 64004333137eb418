package main

import (
	"time"

	"interweave/internal/core"
)

// layerAcc accumulates one client's per-layer figures in a traced
// run. Only the client's own goroutine touches it.
type layerAcc struct {
	writes, reads            int
	wlock, wunlock, rlock    *latHist
	wunlockLocal, rlockLocal *latHist
	rlocks, rlocksNoRPC      int
	memWrite, memRead        time.Duration
	twins                    uint64
	wordDiff, translate      time.Duration
	units, diffBytes         int64
}

// benchClient is one closed-loop load source: a core.Client with one
// connection, driven by one goroutine. Its lock methods time each
// call into the core layer when the run is traced and pass straight
// through otherwise.
type benchClient struct {
	*core.Client
	idx    int
	ct     *clientTap
	rec    *recorder
	traced bool
	l      layerAcc

	phaseStart time.Time
	phaseLen   time.Duration
	windows    []window
	opStart    time.Time
	opSpan     uint64
	twins0     uint64
	firstErr   error
}

func newLayerAcc() layerAcc {
	return layerAcc{wlock: newLatHist(), wunlock: newLatHist(), rlock: newLatHist(),
		wunlockLocal: newLatHist(), rlockLocal: newLatHist()}
}

// startPhase clears the client's figures for a timed phase of length d
// beginning at start.
func (b *benchClient) startPhase(start time.Time, d time.Duration, windows int) {
	b.phaseStart, b.phaseLen = start, d
	b.windows = newWindows(windows)
	b.l = newLayerAcc()
}

// begin starts timing one critical section.
func (b *benchClient) begin() {
	if b.traced {
		b.opSpan = b.rec.newID()
		b.ct.curSpan.Store(b.opSpan)
		b.twins0 = b.Heap().Stats().Twins
	}
	b.opStart = time.Now()
}

// end records the critical section begun last; a failed op counts as
// an infinitely slow one.
func (b *benchClient) end(write bool, err error) error {
	now := time.Now()
	i := 0
	if b.phaseLen > 0 {
		i = int(now.Sub(b.phaseStart) * time.Duration(len(b.windows)) / b.phaseLen)
	}
	if i >= len(b.windows) {
		i = len(b.windows) - 1
	}
	h := b.windows[i].read
	if write {
		h = b.windows[i].write
	}
	if err != nil {
		h.fail()
		if b.firstErr == nil {
			b.firstErr = err
		}
	} else {
		h.add(now.Sub(b.opStart))
	}
	if b.traced {
		name := "op.read"
		if write {
			name = "op.write"
			b.l.writes++
			b.l.twins += b.Heap().Stats().Twins - b.twins0
		} else {
			b.l.reads++
		}
		b.rec.add(b.opSpan, name, 0, b.opStart, now, b.ct.tid)
		b.opSpan = 0
		b.ct.curSpan.Store(0)
	}
	return err
}

type callMark struct {
	id     uint64
	start  time.Time
	rtt0   int64
	frames int64
}

func (b *benchClient) enter() callMark {
	m := callMark{id: b.rec.newID(), rtt0: b.ct.rttNs.Load(), frames: b.ct.framesOut.Load()}
	b.ct.curSpan.Store(m.id)
	m.start = time.Now()
	return m
}

// leave closes a layer call: it returns the call's duration and the
// part of it not spent waiting on the client link.
func (b *benchClient) leave(m callMark, name string) (d, local time.Duration) {
	end := time.Now()
	b.ct.curSpan.Store(b.opSpan)
	b.rec.add(m.id, name, b.opSpan, m.start, end, b.ct.tid)
	d = end.Sub(m.start)
	return d, d - time.Duration(b.ct.rttNs.Load()-m.rtt0)
}

func (b *benchClient) wlock(h *core.Segment) error {
	if !b.traced {
		return b.WLock(h)
	}
	m := b.enter()
	err := b.WLock(h)
	d, _ := b.leave(m, "core.WLock")
	b.l.wlock.add(d)
	return err
}

func (b *benchClient) wunlock(h *core.Segment) error {
	if !b.traced {
		return b.WUnlock(h)
	}
	m := b.enter()
	err := b.WUnlock(h)
	d, local := b.leave(m, "core.WUnlock")
	b.l.wunlock.add(d)
	b.l.wunlockLocal.add(local)
	st := h.LastCollectStats()
	b.l.wordDiff += st.WordDiff
	b.l.translate += st.Translate
	b.l.units += int64(st.Units)
	b.l.diffBytes += int64(st.Bytes)
	return err
}

func (b *benchClient) rlock(h *core.Segment) error {
	if !b.traced {
		return b.RLock(h)
	}
	m := b.enter()
	err := b.RLock(h)
	d, local := b.leave(m, "core.RLock")
	b.l.rlock.add(d)
	b.l.rlockLocal.add(local)
	b.l.rlocks++
	if b.ct.framesOut.Load() == m.frames {
		b.l.rlocksNoRPC++
	}
	return err
}

func (b *benchClient) runlock(h *core.Segment) error {
	if !b.traced {
		return b.RUnlock(h)
	}
	m := b.enter()
	err := b.RUnlock(h)
	b.leave(m, "core.RUnlock")
	return err
}

// memBegin and memEnd bracket the heap accessor calls of a critical
// section (the mem layer).
func (b *benchClient) memBegin() callMark {
	if !b.traced {
		return callMark{}
	}
	return b.enter()
}

func (b *benchClient) memEnd(m callMark, write bool) {
	if !b.traced {
		return
	}
	if write {
		d, _ := b.leave(m, "mem.write")
		b.l.memWrite += d
	} else {
		d, _ := b.leave(m, "mem.read")
		b.l.memRead += d
	}
}
