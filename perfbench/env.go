package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/arch"
	"interweave/internal/cluster"
	"interweave/internal/core"
	"interweave/internal/obs"
	"interweave/internal/proxy"
	"interweave/internal/server"
)

// topology is one booted workload: its nodes, its two clients, and the
// generator state its output check compares against.
type topology interface {
	// step runs one closed-loop critical section for b, timed
	// between b.begin and b.end.
	step(b *benchClient) error
	// check verifies the workload's output once load has stopped.
	check() error
}

// loadStopper is a topology whose clients may wait on each other; the
// driver calls stopLoad when the timed phase ends so no client waits
// for a peer that has already stopped.
type loadStopper interface {
	stopLoad()
}

// staleCounter is a topology that counts reads more than their
// coherence bound behind the newest version committed before they
// began (which asynchronous notification allows; see README.md).
type staleCounter interface {
	beyondDeltaReads() int64
}

// errStopped is what a step returns when stopLoad released it before
// its critical section began.
var errStopped = errors.New("load stopped")

// env owns every node, client and socket of one topology.
type env struct {
	tap    *tap
	rec    *recorder
	traced bool
	dir    string
	seed   int64

	clients    [2]*benchClient
	serverRegs []*obs.Registry
	proxyRegs  []*obs.Registry
	clientReg  *obs.Registry
	journals   []string
	// evicting marks a topology with a resident budget. Its servers
	// get a registry even untraced, because its output check reads the
	// fault counter, and its traced run samples the resident-bytes
	// gauge.
	evicting bool
	// notes[c] maps a segment name to the newest version client c has
	// finished processing a Notify for (*atomic.Uint32).
	notes [3]sync.Map
	// faultsInPhase is the segment fault-ins the last timed phase
	// counted (servers with a registry only).
	faultsInPhase float64

	closers []func()
	serving sync.WaitGroup
}

func newEnv(traced bool, dir string, seed int64) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{traced: traced, dir: dir, seed: seed}
	if traced {
		e.rec = &recorder{}
		e.clientReg = obs.NewRegistry()
	}
	e.tap = newTap(traced, e.rec)
	return e, nil
}

// serve boots a server on the logical address.
func (e *env) serve(logical string, opts server.Options) (*server.Server, error) {
	opts.SLOSampleEvery = -1
	if e.traced || e.evicting {
		opts.Metrics = obs.NewRegistry()
		e.serverRegs = append(e.serverRegs, opts.Metrics)
	}
	if opts.JournalDir != "" {
		e.journals = append(e.journals, opts.JournalDir)
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", logical, err)
	}
	ln, err := e.tap.listen(logical)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = srv.Serve(ln)
	}()
	e.closers = append(e.closers, func() { _ = srv.Close() })
	return srv, nil
}

// node builds the cluster membership object for a logical address.
func (e *env) node(self string, peers []string, replicas int) *cluster.Node {
	n := cluster.NewNode(cluster.Options{
		Self:     self,
		Peers:    peers,
		Replicas: replicas,
		Dial:     e.tap.dialer(linkPeer, nil),
	})
	e.closers = append(e.closers, n.Close)
	return n
}

// serveProxy boots a proxy on the logical address.
func (e *env) serveProxy(logical string, opts proxy.Options) (*proxy.Proxy, error) {
	opts.Advertise = logical
	opts.Dial = e.tap.dialer(linkUpstream, nil)
	if e.traced {
		opts.Metrics = obs.NewRegistry()
		e.proxyRegs = append(e.proxyRegs, opts.Metrics)
	}
	p, err := proxy.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := e.tap.listen(logical)
	if err != nil {
		return nil, err
	}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = p.Serve(ln)
	}()
	e.closers = append(e.closers, func() { _ = p.Close() })
	return p, nil
}

// newClient builds benchmark client i.
func (e *env) newClient(i int, prof *arch.Profile) (*benchClient, error) {
	ct := &clientTap{tid: uint64(i + 1)}
	opts := core.Options{
		Profile: prof,
		Name:    fmt.Sprintf("bench%d", i),
		Dial:    e.tap.dialer(linkClient, ct),
		Metrics: e.clientReg,
	}
	if i < len(e.notes) {
		opts.OnNotify = func(seg string, version uint32) { e.noteNotify(i, seg, version) }
	}
	c, err := core.NewClient(opts)
	if err != nil {
		return nil, err
	}
	b := &benchClient{Client: c, idx: i, ct: ct, rec: e.rec, traced: e.traced}
	b.startPhase(time.Now(), 0, 1) // set-up and warm-up ops land here
	e.closers = append(e.closers, func() { _ = c.Close() })
	if i < len(e.clients) {
		e.clients[i] = b
	}
	return b, nil
}

func (e *env) noteNotify(c int, seg string, version uint32) {
	a, ok := e.notes[c].Load(seg)
	if !ok {
		a, _ = e.notes[c].LoadOrStore(seg, new(atomic.Uint32))
	}
	storeMax(a.(*atomic.Uint32), version)
}

// notified is the newest version client c has been notified of for
// seg. The client's own invalidation bookkeeping for that notification
// is complete by then.
func (e *env) notified(c int, seg string) uint32 {
	if a, ok := e.notes[c].Load(seg); ok {
		return a.(*atomic.Uint32).Load()
	}
	return 0
}

// close stops every node and client, waits for their serve loops to
// return, and removes the topology's files.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	e.serving.Wait()
	_ = os.RemoveAll(e.dir)
}

// journalBytes is the total size of the topology's journal
// directories, read with stat from outside the program.
func (e *env) journalBytes() int64 {
	var n int64
	for _, dir := range e.journals {
		_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				n += fi.Size()
			}
			return nil
		})
	}
	return n
}
