package main

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"interweave/internal/obs"
)

// latHist is a log-linear latency histogram: exact below 256 ns, then
// 128 buckets per power of two (under 0.8% wide), so percentiles need
// no per-op storage and recording never allocates. Failed ops count
// as +Inf.
type latHist struct {
	counts []uint32
	n      int
	inf    int
}

const histSub = 128

func newLatHist() *latHist { return &latHist{counts: make([]uint32, 2*histSub+56*histSub)} }

func bucketOf(ns uint64) int {
	if ns < 2*histSub {
		return int(ns)
	}
	shift := bits.Len64(ns) - 8
	return 2*histSub + (shift-1)*histSub + int(ns>>shift) - histSub
}

// bucketRange is bucket i's lower bound and width, in ns.
func bucketRange(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := (i-2*histSub)/histSub + 1
	k := (i-2*histSub)%histSub + histSub
	return float64(uint64(k) << shift), float64(uint64(1) << shift)
}

func (h *latHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *latHist) fail() { h.inf++ }

func (h *latHist) total() int { return h.n + h.inf }

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.inf += o.inf
}

// quantile is the nearest-rank q-quantile in ms, interpolated inside
// its bucket; +Inf when it falls among failed ops, 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	tot := h.total()
	if tot == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(tot)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		return math.Inf(1)
	}
	cum := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+int(c) >= rank {
			lo, w := bucketRange(i)
			return (lo + w*(float64(rank-cum)-0.5)/float64(c)) / 1e6
		}
		cum += int(c)
	}
	return math.Inf(1)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// window is one slice of a client's timed phase.
type window struct {
	write, read *latHist
}

func newWindows(n int) []window {
	ws := make([]window, n)
	for i := range ws {
		ws[i] = window{write: newLatHist(), read: newLatHist()}
	}
	return ws
}

// windowStats reports, for each figure, the median over the phase's
// equal windows: one window disturbed by the rest of the host moves
// no median.
type windowStats struct {
	opsPerS                    float64
	writeP50, writeP90, wP99   float64
	readP50, readP90, readP99  float64
	writes, reads, ops, failed int
	windowRates                []float64
}

// summarize merges the clients' windows and takes medians over them.
func summarize(clients [][]window, phase time.Duration) windowStats {
	var st windowStats
	n := len(clients[0])
	win := phase / time.Duration(n)
	var rate, w50, w90, w99, r50, r90, r99 []float64
	for i := 0; i < n; i++ {
		wr, rd := newLatHist(), newLatHist()
		for _, c := range clients {
			wr.merge(c[i].write)
			rd.merge(c[i].read)
		}
		st.writes += wr.total()
		st.reads += rd.total()
		st.failed += wr.inf + rd.inf
		rate = append(rate, float64(wr.total()+rd.total())/win.Seconds())
		if wr.total() > 0 {
			w50 = append(w50, wr.quantile(0.50))
			w90 = append(w90, wr.quantile(0.90))
			w99 = append(w99, wr.quantile(0.99))
		}
		if rd.total() > 0 {
			r50 = append(r50, rd.quantile(0.50))
			r90 = append(r90, rd.quantile(0.90))
			r99 = append(r99, rd.quantile(0.99))
		}
	}
	st.ops = st.writes + st.reads
	st.opsPerS = median(rate)
	st.windowRates = rate
	st.writeP50, st.writeP90, st.wP99 = median(w50), median(w90), median(w99)
	st.readP50, st.readP90, st.readP99 = median(r50), median(r90), median(r99)
	return st
}

// regDelta reads metric families across a set of registries as the
// difference between two snapshots.
type regDelta struct {
	before, after []obs.Snapshot
}

func snapshotAll(regs []*obs.Registry) []obs.Snapshot {
	out := make([]obs.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

func inFamily(key, family string) bool {
	return key == family || strings.HasPrefix(key, family+"{")
}

func sumCounters(snaps []obs.Snapshot, match func(string) bool) float64 {
	var n float64
	for _, s := range snaps {
		for k, v := range s.Counters {
			if match(k) {
				n += float64(v)
			}
		}
	}
	return n
}

func sumGauges(snaps []obs.Snapshot, family string) float64 {
	var n float64
	for _, s := range snaps {
		for k, v := range s.Gauges {
			if inFamily(k, family) {
				n += v
			}
		}
	}
	return n
}

func sumHist(snaps []obs.Snapshot, family string) (sum, count float64) {
	for _, s := range snaps {
		for k, h := range s.Histograms {
			if inFamily(k, family) {
				sum += h.Sum
				count += float64(h.Count)
			}
		}
	}
	return
}

func (d regDelta) counter(family string) float64 {
	m := func(k string) bool { return inFamily(k, family) }
	return sumCounters(d.after, m) - sumCounters(d.before, m)
}

func (d regDelta) gauge(family string) float64 {
	return sumGauges(d.after, family) - sumGauges(d.before, family)
}

// histMean is the mean observation, in seconds, over the delta.
func (d regDelta) histMean(family string) float64 {
	s1, c1 := sumHist(d.after, family)
	s0, c0 := sumHist(d.before, family)
	if c1-c0 <= 0 {
		return 0
	}
	return (s1 - s0) / (c1 - c0)
}

func (d regDelta) histCount(family string) float64 {
	_, c1 := sumHist(d.after, family)
	_, c0 := sumHist(d.before, family)
	return c1 - c0
}

// ratio divides, reading 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
