package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// newTestNode builds a node with dialing stubbed out so gossip
// attempts fail instantly instead of hitting the network.
func newTestNode(self string, peers ...string) *Node {
	return NewNode(Options{
		Self:     self,
		Peers:    peers,
		Replicas: 1,
		Dial: func(addr string) (net.Conn, error) {
			return nil, net.ErrClosed
		},
	})
}

// TestNodeInitialAgreement: identically configured nodes start from
// identical views regardless of peer-list order.
func TestNodeInitialAgreement(t *testing.T) {
	a := newTestNode("h1:1", "h2:1", "h3:1")
	b := newTestNode("h2:1", "h3:1", "h1:1")
	defer a.Close()
	defer b.Close()
	am, bm := a.Membership(), b.Membership()
	if am.Epoch != 1 || bm.Epoch != 1 {
		t.Fatalf("initial epochs %d, %d", am.Epoch, bm.Epoch)
	}
	for i := range am.Members {
		if am.Members[i] != bm.Members[i] {
			t.Fatalf("views differ at %d: %+v vs %+v", i, am.Members[i], bm.Members[i])
		}
	}
	if a.Owner("h1:1/s") != b.Owner("h1:1/s") {
		t.Error("nodes disagree on placement from identical config")
	}
}

// TestNodeMarkDead: a death bumps the epoch, removes the node from
// placement, and fires the change callback.
func TestNodeMarkDead(t *testing.T) {
	n := newTestNode("h1:1", "h2:1", "h3:1")
	defer n.Close()

	var mu sync.Mutex
	var epochs []uint64
	n.OnEpochChange(func(ms protocol.Membership) {
		mu.Lock()
		epochs = append(epochs, ms.Epoch)
		mu.Unlock()
	})

	if !n.MarkDead("h2:1") {
		t.Fatal("MarkDead(h2:1) = false")
	}
	if n.MarkDead("h2:1") {
		t.Error("second MarkDead on same node should be a no-op")
	}
	if n.MarkDead("nope:1") {
		t.Error("MarkDead on unknown node should be a no-op")
	}
	if e := n.Epoch(); e != 2 {
		t.Errorf("epoch after one death = %d, want 2", e)
	}
	for _, addr := range n.Ring().Live() {
		if addr == "h2:1" {
			t.Error("dead node still on ring")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 1 || epochs[0] != 2 {
		t.Errorf("callback epochs = %v, want [2]", epochs)
	}
}

// TestNodeAdoptMembership: only strictly newer epochs are adopted.
func TestNodeAdoptMembership(t *testing.T) {
	n := newTestNode("h1:1", "h2:1")
	defer n.Close()
	stale := n.Membership() // epoch 1
	if n.AdoptMembership(stale) {
		t.Error("adopted equal-epoch view")
	}
	newer := n.Membership()
	newer.Epoch = 5
	newer.Members[0].Dead = true
	if !n.AdoptMembership(newer) {
		t.Fatal("rejected newer view")
	}
	if n.Epoch() != 5 {
		t.Errorf("epoch = %d, want 5", n.Epoch())
	}
	// The node keeps its own deep copy.
	newer.Members[1].Dead = true
	if n.Membership().Members[1].Dead {
		t.Error("adopted view shares caller's backing array")
	}
}

// TestNodeMetricsAddrAdvertisement: a node stamps its own metrics
// address onto every view it installs, adopted peer views included,
// and the equal-epoch merge machinery spreads advertisements without
// losing either side's.
func TestNodeMetricsAddrAdvertisement(t *testing.T) {
	failDial := func(addr string) (net.Conn, error) { return nil, net.ErrClosed }
	a := NewNode(Options{Self: "h1:1", Peers: []string{"h2:1"}, Replicas: 1,
		MetricsAddr: "h1:9", Dial: failDial})
	b := NewNode(Options{Self: "h2:1", Peers: []string{"h1:1"}, Replicas: 1,
		MetricsAddr: "h2:9", Dial: failDial})
	defer a.Close()
	defer b.Close()

	find := func(ms protocol.Membership, addr string) protocol.Member {
		for _, m := range ms.Members {
			if m.Addr == addr {
				return m
			}
		}
		t.Fatalf("member %s missing", addr)
		return protocol.Member{}
	}
	if got := find(a.Membership(), "h1:1").MetricsAddr; got != "h1:9" {
		t.Fatalf("initial self advertisement = %q", got)
	}

	// a learns b's view (equal epoch, divergent advertisements):
	// deterministic merge keeps both and bumps the epoch.
	if !a.AdoptMembership(b.Membership()) {
		t.Fatal("divergent equal-epoch view not merged")
	}
	am := a.Membership()
	if am.Epoch != 2 {
		t.Fatalf("merge epoch = %d, want 2", am.Epoch)
	}
	if find(am, "h1:1").MetricsAddr != "h1:9" || find(am, "h2:1").MetricsAddr != "h2:9" {
		t.Fatalf("merge lost advertisements: %+v", am.Members)
	}

	// b adopts the merged higher-epoch view and re-stamps itself; the
	// two nodes now agree.
	if !b.AdoptMembership(am) {
		t.Fatal("higher-epoch merged view not adopted")
	}
	bm := b.Membership()
	if !viewsEqual(am, bm) {
		t.Fatalf("views diverge after adoption:\n a %+v\n b %+v", am.Members, bm.Members)
	}

	// A node with no metrics address must not invent one, and a
	// re-adoption must not strip a peer's advertisement.
	if got := find(newTestNode("h9:1", "h1:1").Membership(), "h9:1").MetricsAddr; got != "" {
		t.Fatalf("unadvertised node exported %q", got)
	}
}

// TestNodeSetOverride: migration pins change placement and bump the
// epoch.
func TestNodeSetOverride(t *testing.T) {
	n := newTestNode("h1:1", "h2:1")
	defer n.Close()
	seg := "h1:1/moved"
	n.SetOverride(seg, "h2:1")
	if got := n.Owner(seg); got != "h2:1" {
		t.Errorf("Owner after override = %q", got)
	}
	if n.Epoch() != 2 {
		t.Errorf("epoch after override = %d, want 2", n.Epoch())
	}
	// Re-pointing the same segment updates in place.
	n.SetOverride(seg, "h1:1")
	if got := n.Owner(seg); got != "h1:1" {
		t.Errorf("Owner after second override = %q", got)
	}
	if len(n.Membership().Overrides) != 1 {
		t.Error("override list grew on update")
	}
}

// TestNodeRPCPlumbing exercises Call/fetchRing/pushRing against a
// minimal in-process peer speaking the cluster frames.
func TestNodeRPCPlumbing(t *testing.T) {
	peerView := protocol.Membership{
		Epoch:   9,
		Members: []protocol.Member{{Addr: "h1:1"}, {Addr: "h2:1", Dead: true}},
	}
	var gotPush protocol.Membership
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, msg, err := protocol.ReadFrame(conn)
			if err != nil {
				conn.Close()
				continue
			}
			switch m := msg.(type) {
			case *protocol.RingGet:
				_ = protocol.WriteFrame(conn, 1, &protocol.RingReply{Ms: peerView})
			case *protocol.RingPush:
				gotPush = m.Ms
				_ = protocol.WriteFrame(conn, 1, &protocol.Ack{})
			default:
				_ = protocol.WriteFrame(conn, 1, &protocol.ErrorReply{Code: protocol.CodeBadRequest, Text: "?"})
			}
			conn.Close()
		}
	}()

	reg := obs.NewRegistry()
	n := NewNode(Options{
		Self:        "self:1",
		Peers:       []string{ln.Addr().String()},
		Metrics:     reg,
		DialTimeout: time.Second,
	})
	defer n.Close()

	ms, err := n.fetchRing(ln.Addr().String())
	if err != nil {
		t.Fatalf("fetchRing: %v", err)
	}
	if ms.Epoch != 9 {
		t.Errorf("fetched epoch %d, want 9", ms.Epoch)
	}
	if !n.AdoptMembership(ms) {
		t.Error("fetched view not adopted")
	}

	if err := n.pushRing(ln.Addr().String(), n.Membership()); err != nil {
		t.Fatalf("pushRing: %v", err)
	}
	if gotPush.Epoch != 9 {
		t.Errorf("peer received epoch %d, want 9", gotPush.Epoch)
	}

	// An ErrorReply from the peer surfaces as an error.
	if _, err := n.Call(ln.Addr().String(), &protocol.Migrate{Seg: "x", Target: "y"}); err == nil {
		t.Error("Call returning ErrorReply did not error")
	}

	snap := reg.Snapshot()
	if snap.Gauges["iw_cluster_epoch"] != 9 {
		t.Errorf("iw_cluster_epoch = %v, want 9", snap.Gauges["iw_cluster_epoch"])
	}
	if snap.Gauges["iw_cluster_members_dead"] != 1 {
		t.Errorf("iw_cluster_members_dead = %v, want 1", snap.Gauges["iw_cluster_members_dead"])
	}
	ln.Close()
	<-done
}

// TestNodeEqualEpochMerge: two nodes that bump the epoch concurrently
// (one marks a death, the other commits a migration) diverge at the
// same epoch; adopting each other's half merges both changes into the
// same deterministic epoch+1 view on each side.
func TestNodeEqualEpochMerge(t *testing.T) {
	a := newTestNode("h1:1", "h2:1", "h3:1")
	b := newTestNode("h2:1", "h3:1", "h1:1")
	defer a.Close()
	defer b.Close()

	a.MarkDead("h3:1")
	b.SetOverride("h1:1/moved", "h2:1")
	av, bv := a.Membership(), b.Membership()
	if av.Epoch != 2 || bv.Epoch != 2 {
		t.Fatalf("divergence setup: epochs %d, %d, want 2, 2", av.Epoch, bv.Epoch)
	}

	if !a.AdoptMembership(bv) {
		t.Fatal("a did not merge b's divergent equal-epoch view")
	}
	if !b.AdoptMembership(av) {
		t.Fatal("b did not merge a's divergent equal-epoch view")
	}

	am, bm := a.Membership(), b.Membership()
	if am.Epoch != 3 || bm.Epoch != 3 {
		t.Errorf("merged epochs %d, %d, want 3, 3", am.Epoch, bm.Epoch)
	}
	if !viewsEqual(am, bm) {
		t.Fatalf("merged views differ:\n a: %+v\n b: %+v", am, bm)
	}
	if a.Owner("h1:1/moved") != "h2:1" || b.Owner("h1:1/moved") != "h2:1" {
		t.Error("override lost in merge")
	}
	for _, addr := range a.Ring().Live() {
		if addr == "h3:1" {
			t.Error("dead mark lost in merge")
		}
	}
	// Re-offering the already-merged content changes nothing more.
	if a.AdoptMembership(bm) {
		t.Error("adopted an equal-epoch identical view")
	}
}

// TestNodeRevive: a dead member returns to placement with an epoch
// bump; revives of live or unknown members are no-ops.
func TestNodeRevive(t *testing.T) {
	n := newTestNode("h1:1", "h2:1", "h3:1")
	defer n.Close()
	if n.Revive("h2:1") {
		t.Error("Revive of a live member should be a no-op")
	}
	n.MarkDead("h2:1")
	if !n.Revive("h2:1") {
		t.Fatal("Revive(h2:1) = false")
	}
	if n.Revive("nope:1") {
		t.Error("Revive of an unknown member should be a no-op")
	}
	if e := n.Epoch(); e != 3 {
		t.Errorf("epoch after death+revival = %d, want 3", e)
	}
	found := false
	for _, addr := range n.Ring().Live() {
		if addr == "h2:1" {
			found = true
		}
	}
	if !found {
		t.Error("revived member not back on the ring")
	}
}

// TestNodeRejoinHandshake: probePeers revives a reachable dead-marked
// member, but only after pushing it the view in which it is still dead
// so the rejoining node demotes before placement trusts it again.
func TestNodeRejoinHandshake(t *testing.T) {
	var mu sync.Mutex
	var pushes []protocol.Membership
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, msg, err := protocol.ReadFrame(conn)
			if err != nil {
				conn.Close()
				continue
			}
			switch m := msg.(type) {
			case *protocol.RingGet:
				_ = protocol.WriteFrame(conn, 1, &protocol.RingReply{Ms: protocol.Membership{Epoch: 1}})
			case *protocol.RingPush:
				mu.Lock()
				pushes = append(pushes, m.Ms)
				mu.Unlock()
				_ = protocol.WriteFrame(conn, 1, &protocol.Ack{})
			}
			conn.Close()
		}
	}()

	peer := ln.Addr().String()
	n := NewNode(Options{Self: "self:1", Peers: []string{peer}, DialTimeout: time.Second})
	defer n.Close()
	n.MarkDead(peer)
	n.probePeers()

	if e := n.Epoch(); e != 3 {
		t.Errorf("epoch after rejoin = %d, want 3 (death + revival)", e)
	}
	live := false
	for _, addr := range n.Ring().Live() {
		if addr == peer {
			live = true
		}
	}
	if !live {
		t.Fatal("reachable dead member was not revived")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pushes) == 0 {
		t.Fatal("no membership pushed to the rejoining member")
	}
	first := pushes[0]
	deadInFirst := false
	for _, m := range first.Members {
		if m.Addr == peer && m.Dead {
			deadInFirst = true
		}
	}
	if !deadInFirst {
		t.Errorf("first push must carry the still-dead view; got %+v", first)
	}
}

// TestNodeHeartbeatMarksDead: the probe loop declares an unreachable
// peer dead after FailureThreshold consecutive failures.
func TestNodeHeartbeatMarksDead(t *testing.T) {
	n := NewNode(Options{
		Self:             "self:1",
		Peers:            []string{"gone:1"},
		Heartbeat:        5 * time.Millisecond,
		FailureThreshold: 2,
		DialTimeout:      50 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			return nil, net.ErrClosed
		},
	})
	n.Start()
	defer n.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n.Epoch() > 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n.Epoch() == 1 {
		t.Fatal("heartbeat never marked the unreachable peer dead")
	}
	for _, addr := range n.Ring().Live() {
		if addr == "gone:1" {
			t.Error("unreachable peer still live")
		}
	}
}

// poolPeer is an in-process peer that answers every frame on a
// connection until the caller closes it: RingGet with a RingReply,
// anything else with an Ack. While hold is set, replies wait for a
// receive on release. It counts the connections it accepted and the
// ones the caller closed.
type poolPeer struct {
	t       *testing.T
	addr    string
	hold    atomic.Bool
	release chan struct{}
	got     chan struct{} // one send per request received while held
	wedge   atomic.Bool   // read requests but never answer

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	accepted int
	closedBy int // connections whose caller closed them
}

func newPoolPeer(t *testing.T) *poolPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &poolPeer{
		t: t, addr: ln.Addr().String(),
		release: make(chan struct{}), got: make(chan struct{}, 64),
		conns: make(map[net.Conn]struct{}),
	}
	p.serve(ln)
	t.Cleanup(p.stop)
	return p
}

func (p *poolPeer) serve(ln net.Listener) {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.accepted++
			p.conns[conn] = struct{}{}
			p.mu.Unlock()
			go p.handle(conn)
		}
	}()
}

func (p *poolPeer) handle(conn net.Conn) {
	defer conn.Close()
	for {
		id, msg, err := protocol.ReadFrame(conn)
		if err != nil {
			p.mu.Lock()
			if _, ok := p.conns[conn]; ok {
				delete(p.conns, conn)
				p.closedBy++
			}
			p.mu.Unlock()
			return
		}
		if p.wedge.Load() {
			continue
		}
		if p.hold.Load() {
			p.got <- struct{}{}
			<-p.release
		}
		var reply protocol.Message = &protocol.Ack{}
		if _, ok := msg.(*protocol.RingGet); ok {
			reply = &protocol.RingReply{Ms: protocol.Membership{Epoch: 1}}
		}
		if err := protocol.WriteFrame(conn, id, reply); err != nil {
			return
		}
	}
}

// stop closes the listener and every open connection from the peer
// side, as a crashed or restarted process would.
func (p *poolPeer) stop() {
	p.mu.Lock()
	_ = p.ln.Close()
	for c := range p.conns {
		delete(p.conns, c)
		_ = c.Close()
	}
	p.mu.Unlock()
}

// restart stops the peer and listens again on the same address.
func (p *poolPeer) restart() {
	p.stop()
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		p.t.Fatal(err)
	}
	p.serve(ln)
}

// callerClosed reports how many connections the caller has closed.
func (p *poolPeer) callerClosed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closedBy
}

// waitCallerClosed waits until the caller has closed want connections.
func (p *poolPeer) waitCallerClosed(want int) {
	p.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for p.callerClosed() < want {
		if time.Now().After(deadline) {
			p.t.Fatalf("caller closed %d connections, want %d", p.callerClosed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// newPoolNode builds a node whose dials are counted.
func newPoolNode(t *testing.T, timeout time.Duration, peers ...string) (*Node, *obs.Registry, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	reg := obs.NewRegistry()
	n := NewNode(Options{
		Self: "self:1", Peers: peers, Metrics: reg, DialTimeout: timeout,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	t.Cleanup(n.Close)
	return n, reg, &dials
}

func idleConns(reg *obs.Registry) int {
	return int(reg.Snapshot().Gauges["iw_cluster_peer_conns_idle"])
}

// TestCallPoolReuse: sequential RPCs share one connection.
func TestCallPoolReuse(t *testing.T) {
	p := newPoolPeer(t)
	n, reg, dials := newPoolNode(t, time.Second, p.addr)
	for i := 0; i < 100; i++ {
		if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("100 sequential calls dialed %d times, want 1", d)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["iw_cluster_peer_dials_total"]; got != 1 {
		t.Errorf("iw_cluster_peer_dials_total = %v, want 1", got)
	}
	if got := snap.Gauges["iw_cluster_peer_conns_idle"]; got != 1 {
		t.Errorf("iw_cluster_peer_conns_idle = %v, want 1", got)
	}
}

// TestCallPoolPeerRestart: a pooled connection the peer closed fails
// on reuse, and the call succeeds with exactly one redial.
func TestCallPoolPeerRestart(t *testing.T) {
	p := newPoolPeer(t)
	n, _, dials := newPoolNode(t, time.Second, p.addr)
	if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
		t.Fatal(err)
	}
	p.restart()
	if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
		t.Fatalf("call after peer restart: %v", err)
	}
	if d := dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2 (first call + one redial)", d)
	}
}

// TestCallPoolWedgedPeer: a peer that stops answering on a pooled
// connection costs one DialTimeout with no retry, and the connection
// is closed, not pooled again.
func TestCallPoolWedgedPeer(t *testing.T) {
	p := newPoolPeer(t)
	const timeout = 200 * time.Millisecond
	n, reg, dials := newPoolNode(t, timeout, p.addr)
	if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
		t.Fatal(err)
	}
	p.wedge.Store(true)
	start := time.Now()
	if _, err := n.Call(p.addr, &protocol.RingGet{}); err == nil {
		t.Fatal("call to a wedged peer succeeded")
	}
	if el := time.Since(start); el > 2*timeout {
		t.Errorf("wedged call took %v, want about %v", el, timeout)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("dials after the timed-out call = %d, want 1 (no retry after a timeout)", d)
	}
	if got := idleConns(reg); got != 0 {
		t.Errorf("idle conns after a failed call = %d, want 0", got)
	}
	p.waitCallerClosed(1)
	p.wedge.Store(false)
	if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
		t.Fatal(err)
	}
	if d := dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2 (the wedged connection was not reused)", d)
	}
}

// TestCallPoolConcurrent: concurrent RPCs each get their own
// connection, and at most the cap of them stay idle afterwards.
func TestCallPoolConcurrent(t *testing.T) {
	p := newPoolPeer(t)
	n, reg, _ := newPoolNode(t, 5*time.Second, p.addr)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := idleConns(reg); got < 1 || got > maxIdlePeerConns {
		t.Errorf("idle conns = %d, want 1..%d", got, maxIdlePeerConns)
	}
}

// TestCallPoolClose: Close closes every idle connection, and an RPC
// in flight across Close closes its connection instead of pooling it.
func TestCallPoolClose(t *testing.T) {
	p := newPoolPeer(t)
	n, reg, _ := newPoolNode(t, 5*time.Second, p.addr)

	// Three RPCs held at the peer at once leave three idle conns.
	const held = 3
	p.hold.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Call(p.addr, &protocol.RingGet{}); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < held; i++ {
		<-p.got
	}
	for i := 0; i < held; i++ {
		p.release <- struct{}{}
	}
	wg.Wait()
	if got := idleConns(reg); got != held {
		t.Fatalf("idle conns = %d, want %d", got, held)
	}

	// One more RPC is in flight when Close runs.
	done := make(chan error, 1)
	go func() {
		_, err := n.Call(p.addr, &protocol.RingGet{})
		done <- err
	}()
	<-p.got
	n.Close()
	p.waitCallerClosed(held - 1) // the in-flight call took one idle conn
	p.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("in-flight call across Close: %v", err)
	}
	p.waitCallerClosed(held)
	if got := idleConns(reg); got != 0 {
		t.Errorf("idle conns after Close = %d, want 0", got)
	}
}

// TestCallPoolMarkDead: marking a peer dead closes its idle
// connections and leaves other peers' pooled.
func TestCallPoolMarkDead(t *testing.T) {
	a, b := newPoolPeer(t), newPoolPeer(t)
	n, reg, _ := newPoolNode(t, time.Second, a.addr, b.addr)
	for _, addr := range []string{a.addr, b.addr} {
		if _, err := n.Call(addr, &protocol.RingGet{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := idleConns(reg); got != 2 {
		t.Fatalf("idle conns = %d, want 2", got)
	}
	n.MarkDead(a.addr)
	a.waitCallerClosed(1)
	if got := idleConns(reg); got != 1 {
		t.Errorf("idle conns after MarkDead = %d, want 1 (b's)", got)
	}
	if got := b.callerClosed(); got != 0 {
		t.Errorf("b's connection closed %d times, want 0", got)
	}
}
