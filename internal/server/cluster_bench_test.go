package server

import (
	"fmt"
	"net"
	"testing"

	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/protocol"
)

// BenchmarkClusterRelease measures one replicated write release — a
// WriteLock/WriteUnlock pair carrying a one-word diff — on an
// in-process 3-node loopback cluster, with R=1 and R=2. Allocations
// cover all three servers and the raw-frame client.
func BenchmarkClusterRelease(b *testing.B) {
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) { benchClusterRelease(b, r) })
	}
}

func benchClusterRelease(b *testing.B, replicas int) {
	const nodes = 3
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var owner *cluster.Node
	for i := range lns {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node := cluster.NewNode(cluster.Options{Self: addrs[i], Peers: peers, Replicas: replicas})
		srv, err := New(Options{Cluster: node})
		if err != nil {
			b.Fatal(err)
		}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(lns[i])
		b.Cleanup(func() {
			node.Close()
			_ = srv.Close()
		})
		if i == 0 {
			owner = node
		}
	}

	seg := ""
	for i := 0; i < 256 && seg == ""; i++ {
		if name := fmt.Sprintf("bench-%d", i); owner.IsOwner(name) {
			seg = name
		}
	}
	if seg == "" {
		b.Fatal("no segment owned by node 0 in 256 candidates")
	}
	rc := dialRaw(b, addrs[0])
	rc.mustAck(&protocol.Hello{ClientName: "bench", Profile: "x86-32le"})
	if reply, _ := rc.call(&protocol.OpenSegment{Name: seg, Create: true}); reply == nil {
		b.Fatal("open failed")
	}
	release := func(unlock *protocol.WriteUnlock) {
		if reply, _ := rc.call(&protocol.WriteLock{Seg: seg, Policy: coherence.Full()}); !isLockReply(reply) {
			b.Fatalf("write lock reply = %+v", reply)
		}
		if reply, _ := rc.call(unlock); !isVersionReply(reply) {
			b.Fatalf("unlock reply = %+v", reply)
		}
	}
	release(&protocol.WriteUnlock{Seg: seg, Diff: intCreateDiff(b, 1, 0)})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release(&protocol.WriteUnlock{Seg: seg, Diff: runDiff(1, 0, uint32(i))})
	}
}

func isLockReply(m protocol.Message) bool {
	_, ok := m.(*protocol.LockReply)
	return ok
}

func isVersionReply(m protocol.Message) bool {
	_, ok := m.(*protocol.VersionReply)
	return ok
}
