package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"

	"interweave/internal/arch"
	"interweave/internal/server"
)

// hot-replicated: a 3-node cluster, R=2, journal mode with group
// commit. Every segment is owned by node0 and replicated to the other
// two; both clients talk to node0 and contend on Zipf-hot segments
// with tiny writes and Full-coherence record reads, so the
// per-release path dominates and translation is negligible.

const (
	// hotCompactBytes bounds each segment's journal log. A log keeps
	// every record it holds decoded in memory until compaction, so with
	// the 4 MB default the process grows by about 15 MB a second here
	// and peak_rss_mb would scale with throughput times run length.
	hotCompactBytes = 256 << 10

	hotSegs     = 64
	hotRecWords = 64
	hotWords    = 4 * hotRecWords
	hotZipfS    = 1.1
)

var hotNodes = []string{"node0:7001", "node1:7002", "node2:7003"}

type hotReplicated struct {
	*wordStore
	e    *env
	srvs []*server.Server
}

func setupHot(e *env) (topology, error) {
	w := &hotReplicated{e: e}
	var names []string
	for i, self := range hotNodes {
		var peers []string
		for _, p := range hotNodes {
			if p != self {
				peers = append(peers, p)
			}
		}
		node := e.node(self, peers, 2)
		if i == 0 {
			// Draw segment names from the seed until node0 owns 64.
			rng := rand.New(rand.NewSource(e.seed))
			for len(names) < hotSegs {
				name := fmt.Sprintf("%s/hot-%08x", hotNodes[0], rng.Uint32())
				if node.Owner(name) == hotNodes[0] {
					names = append(names, name)
				}
			}
		}
		srv, err := e.serve(self, server.Options{
			JournalDir:          filepath.Join(e.dir, fmt.Sprintf("node%d", i)),
			JournalCompactBytes: hotCompactBytes,
			GroupCommit:         true,
			Cluster:             node,
		})
		if err != nil {
			return nil, err
		}
		w.srvs = append(w.srvs, srv)
	}
	w.wordStore = newWordStore(e, names, hotWords, hotRecWords, 0.5)
	for i, prof := range []*arch.Profile{arch.AMD64(), arch.Alpha()} {
		if _, err := e.newClient(i, prof); err != nil {
			return nil, err
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(e.seed*31+int64(i))), hotZipfS, 8, hotSegs-1)
		w.choose[i] = func() int { return int(zipf.Uint64()) }
	}
	if err := w.preload(e.clients[0], e.clients[1]); err != nil {
		return nil, err
	}
	if err := warmUp(e, w, 2*hotSegs); err != nil {
		return nil, err
	}
	return w, nil
}

// warmUp runs n ops per client, one client after the other, before the
// timed phase.
func warmUp(e *env, t topology, n int) error {
	for _, b := range e.clients {
		for i := 0; i < n; i++ {
			if err := t.step(b); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (w *hotReplicated) check() error {
	img, vers := w.shadow()
	return w.checkAgainst(img, vers)
}

// checkAgainst compares the owner with the shadow through a fresh
// client, both replicas with the owner, and a server recovered from a
// copy of the owner's journal with the owner.
func (w *hotReplicated) checkAgainst(img [][]int32, vers []uint32) error {
	b, err := w.e.newClient(2, arch.AMD64())
	if err != nil {
		return err
	}
	if err := w.wordStore.checkAgainst(b.Client, img, vers); err != nil {
		return err
	}
	copyDir := filepath.Join(w.e.dir, "reopen")
	if err := copyTree(filepath.Join(w.e.dir, "node0"), copyDir); err != nil {
		return err
	}
	reopened, err := server.New(server.Options{JournalDir: copyDir})
	if err != nil {
		return fmt.Errorf("reopening the owner's journal: %w", err)
	}
	defer reopened.Close()
	for _, name := range w.names {
		want, wantVer, err := snapshotBytes(w.srvs[0], name)
		if err != nil {
			return fmt.Errorf("owner: %w", err)
		}
		for i, srv := range w.srvs[1:] {
			got, ver, err := snapshotBytes(srv, name)
			if err != nil {
				return fmt.Errorf("replica %s: %w", hotNodes[i+1], err)
			}
			if ver != wantVer || !bytes.Equal(got, want) {
				return fmt.Errorf("replica %s holds %s at version %d (%d bytes), owner at %d (%d bytes)",
					hotNodes[i+1], name, ver, len(got), wantVer, len(want))
			}
		}
		got, ver, err := snapshotBytes(reopened, name)
		if err != nil {
			return fmt.Errorf("reopened journal: %w", err)
		}
		if ver != wantVer || !bytes.Equal(got, want) {
			return fmt.Errorf("reopened journal holds %s at version %d, owner at %d", name, ver, wantVer)
		}
	}
	return nil
}

// snapshotBytes is a segment's full image in wire form, and its
// version.
func snapshotBytes(srv *server.Server, name string) ([]byte, uint32, error) {
	seg := srv.SegmentSnapshot(name)
	if seg == nil {
		return nil, 0, fmt.Errorf("no segment %s", name)
	}
	d, err := seg.CollectDiff(0)
	if err != nil {
		return nil, 0, err
	}
	return d.Marshal(nil), d.Version, nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// cold-sweep: one journal-mode server whose resident budget is an
// eighth of the working set. Uniform segment choice means most ops
// land on an evicted segment, so fault-in (journal base + tail
// replay), eviction compaction and segment encoding do the work.
//
// The sweep is clocked by ops, not by a timer: the server's own sweep
// loop is off (EvictInterval < 0) and the client completing every
// coldEvictEvery-th op runs the program's EvictPass before its next
// op. With the timer, how many ops fault depends on how the scheduler
// shares two CPUs between the sweep goroutine and the clients — 15% to
// 35% of ops from run to run on the reference host — so latency
// percentiles land on either side of the fault/no-fault boundary.

const (
	coldSegs       = 256
	coldWords      = 4096 // 16 KB a segment
	coldRecWords   = 1024
	coldBudget     = 512 << 10
	coldEvictEvery = 16
	coldAddr       = "cold:7001"
)

type coldSweep struct {
	*wordStore
	e   *env
	srv *server.Server
	ops atomic.Int64
}

func (w *coldSweep) step(b *benchClient) error {
	err := w.wordStore.step(b)
	if w.ops.Add(1)%coldEvictEvery == 0 {
		w.srv.EvictPass()
	}
	return err
}

func setupCold(e *env) (topology, error) {
	e.evicting = true
	srv, err := e.serve(coldAddr, server.Options{
		JournalDir:       filepath.Join(e.dir, "cold"),
		MaxResidentBytes: coldBudget,
		EvictInterval:    -1,
	})
	if err != nil {
		return nil, err
	}
	w := &coldSweep{e: e, srv: srv}
	var names []string
	for s := 0; s < coldSegs; s++ {
		names = append(names, fmt.Sprintf("%s/cold-%03d", coldAddr, s))
	}
	w.wordStore = newWordStore(e, names, coldWords, coldRecWords, 0.5)
	for i, prof := range []*arch.Profile{arch.AMD64(), arch.X86()} {
		if _, err := e.newClient(i, prof); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(e.seed*131 + int64(i)))
		w.choose[i] = func() int { return rng.Intn(coldSegs) }
	}
	if err := w.preload(e.clients[0], e.clients[1]); err != nil {
		return nil, err
	}
	w.srv.EvictPass()
	if err := warmUp(e, w, coldSegs/4); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *coldSweep) check() error {
	img, vers := w.shadow()
	return w.checkAgainst(img, vers)
}

// checkAgainst requires that segments really were faulted in, that
// one eviction sweep brings the resident image within the budget plus
// one segment, and that every segment matches the shadow.
func (w *coldSweep) checkAgainst(img [][]int32, vers []uint32) error {
	if w.e.faultsInPhase == 0 {
		return fmt.Errorf("no segment was faulted in: the working set never left memory")
	}
	w.srv.EvictPass()
	var resident, largest int64
	for _, sd := range w.srv.DebugSegments() {
		resident += sd.MemBytes
		if sd.MemBytes > largest {
			largest = sd.MemBytes
		}
	}
	if resident > coldBudget+largest {
		return fmt.Errorf("resident image %d bytes after a sweep, budget %d plus one segment %d", resident, coldBudget, largest)
	}
	b, err := w.e.newClient(2, arch.MIPS64())
	if err != nil {
		return err
	}
	return w.wordStore.checkAgainst(b.Client, img, vers)
}
