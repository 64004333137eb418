package cluster

import (
	"net"
	"sync"

	"interweave/internal/obs"
)

// maxIdlePeerConns caps the idle connections Call keeps per peer
// address. Concurrent RPCs beyond it dial extra connections, which are
// closed rather than pooled when they finish.
const maxIdlePeerConns = 8

// peerPool holds the idle peer connections Node.Call reuses. A
// connection is in the pool only while no RPC is using it, so each
// carries at most one request/reply exchange at a time.
type peerPool struct {
	mu     sync.Mutex
	idle   map[string][]net.Conn
	n      int // idle connections across all addresses
	closed bool
	gauge  *obs.Gauge // iw_cluster_peer_conns_idle; nil when disabled
}

func newPeerPool(reg *obs.Registry) *peerPool {
	p := &peerPool{idle: make(map[string][]net.Conn)}
	if reg != nil {
		p.gauge = reg.Gauge("iw_cluster_peer_conns_idle", "Idle pooled connections to peers, across all addresses.")
	}
	return p
}

// addLocked adjusts the idle count by d; callers hold p.mu.
func (p *peerPool) addLocked(d int) {
	p.n += d
	if p.gauge != nil {
		p.gauge.Set(int64(p.n))
	}
}

// get takes the most recently returned idle connection to addr, or
// returns nil when there is none.
func (p *peerPool) get(addr string) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	p.idle[addr] = conns[:len(conns)-1]
	p.addLocked(-1)
	return c
}

// put returns a healthy connection for reuse. It closes the connection
// instead when addr is at its cap or the pool has been closed.
func (p *peerPool) put(addr string, c net.Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= maxIdlePeerConns {
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], c)
	p.addLocked(1)
	p.mu.Unlock()
}

// drain closes every idle connection to addr.
func (p *peerPool) drain(addr string) {
	p.mu.Lock()
	conns := p.idle[addr]
	delete(p.idle, addr)
	p.addLocked(-len(conns))
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// close drains every address; connections returned later are closed.
func (p *peerPool) close() {
	p.mu.Lock()
	p.closed = true
	all := p.idle
	p.idle = make(map[string][]net.Conn)
	p.addLocked(-p.n)
	p.mu.Unlock()
	for _, conns := range all {
		for _, c := range conns {
			_ = c.Close()
		}
	}
}
