package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/obs"
)

// Track ids of the Chrome trace: one per benchmark client, one for
// peer links, one for upstream links.
const (
	tidPeer     = 10
	tidUpstream = 11
)

// maxSpans bounds the spans a traced run keeps in memory; later spans
// still feed the per-layer aggregates, only their trace events drop.
const maxSpans = 200000

// spanRec is one benchmark-side span: a call into a layer's public
// function, or a frame round trip on a link.
type spanRec struct {
	name       string
	id, parent uint64
	start, end time.Time
	tid        uint64
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []spanRec
	dropped int
}

func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

func (r *recorder) add(id uint64, name string, parent uint64, start, end time.Time, tid uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, spanRec{name: name, id: id, parent: parent, start: start, end: end, tid: tid})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// reset drops the spans recorded so far (during set-up).
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.dropped = nil, 0
}

// layerSelf is one span name's total self time: its duration minus
// the part its child spans cover.
type layerSelf struct {
	name  string
	count int
	self  time.Duration
}

// selfTimes aggregates self time per span name. Children of one span
// run one after another on the client goroutine, so their durations
// add without overlap.
func (r *recorder) selfTimes() []layerSelf {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[uint64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent != 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	agg := map[string]*layerSelf{}
	for _, s := range r.spans {
		l := agg[s.name]
		if l == nil {
			l = &layerSelf{name: s.name}
			agg[s.name] = l
		}
		self := s.end.Sub(s.start) - child[s.id]
		if self < 0 {
			self = 0
		}
		l.count++
		l.self += self
	}
	out := make([]layerSelf, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeChrome writes the kept spans as a Chrome trace_event document.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := obs.ChromeExport{TraceEvents: []obs.ChromeEvent{}, DisplayTimeUnit: "ms"}
	if len(r.spans) > 0 {
		epoch := r.spans[0].start
		for _, s := range r.spans {
			if s.start.Before(epoch) {
				epoch = s.start
			}
		}
		for _, s := range r.spans {
			out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
				Name: s.name,
				Cat:  "perfbench",
				Ph:   "X",
				Ts:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
				Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				Pid:  1,
				Tid:  s.tid,
				Args: map[string]string{
					"span_id":   fmt.Sprintf("%x", s.id),
					"parent_id": fmt.Sprintf("%x", s.parent),
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// writeChromeFile writes the trace to path.
func (r *recorder) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
