package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// linkClass names which kind of socket a byte crossed.
type linkClass int

const (
	linkClient   linkClass = iota // benchmark client <-> server or proxy
	linkPeer                      // cluster node <-> cluster node
	linkUpstream                  // proxy <-> origin
	numLinks
)

var linkNames = [numLinks]string{"client", "peer", "upstream"}

// tap wraps every socket of the process: dialers handed to the
// program's Dial hooks and listeners handed to Serve. Untraced it
// keeps one atomic add per socket call (bytes written) plus a dial
// count; traced it also parses frame headers so each request frame
// can be matched to its reply by frame id.
//
// Node addresses are logical ("node0:7001"): the tap resolves them to
// the loopback listeners that actually serve them, so segment names
// and ring placement do not depend on which ports the kernel hands
// out.
type tap struct {
	traced bool
	rec    *recorder

	bytes  [numLinks]atomic.Int64
	dials  [numLinks]atomic.Int64
	frames [numLinks]atomic.Int64

	mu      sync.Mutex
	real    map[string]string    // logical address -> listener address
	byLocal map[string]linkClass // dialer's local address -> class
	// Traced-only samples, guarded by mu.
	rtt  [numLinks]*latHist // request written -> reply read
	dial [numLinks]*latHist
}

func newTap(traced bool, rec *recorder) *tap {
	t := &tap{
		traced:  traced,
		rec:     rec,
		real:    make(map[string]string),
		byLocal: make(map[string]linkClass),
	}
	t.resetSamples()
	return t
}

// listen opens a loopback listener serving the logical address.
func (t *tap) listen(logical string) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", logical, err)
	}
	t.mu.Lock()
	t.real[logical] = ln.Addr().String()
	t.mu.Unlock()
	return &tapListener{Listener: ln, t: t}, nil
}

// dialer returns a Dial hook whose connections count as class. ct,
// when non-nil, is the benchmark client owning the connections.
func (t *tap) dialer(class linkClass, ct *clientTap) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		t.mu.Lock()
		real, ok := t.real[addr]
		t.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("tap: no listener serves %q", addr)
		}
		start := time.Now()
		c, err := net.DialTimeout("tcp", real, 5*time.Second)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		t.dials[class].Add(1)
		t.mu.Lock()
		t.byLocal[c.LocalAddr().String()] = class
		if t.traced {
			t.dial[class].add(end.Sub(start))
		}
		t.mu.Unlock()
		if t.traced && class == linkPeer {
			t.rec.add(t.rec.newID(), "cluster.peer_dial", 0, start, end, tidPeer)
		}
		tc := &tapConn{Conn: c, t: t, dialed: true, owner: ct}
		tc.cls.Store(int32(class))
		if t.traced {
			tc.pending = make(map[uint32]pendingReq)
		}
		return tc, nil
	}
}

// resetSamples drops the traced samples taken so far (during set-up).
func (t *tap) resetSamples() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rtt {
		t.rtt[i], t.dial[i] = newLatHist(), newLatHist()
	}
}

// totals returns bytes written and frames written across all links.
func (t *tap) totals() (bytes, frames [numLinks]int64) {
	for i := range bytes {
		bytes[i] = t.bytes[i].Load()
		frames[i] = t.frames[i].Load()
	}
	return
}

type tapListener struct {
	net.Listener
	t *tap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, t: l.t}
	tc.cls.Store(-1)
	return tc, nil
}

// clientTap is the per-benchmark-client view of its own sockets: how
// many frames it wrote, how much round-trip time completed, and which
// span the next request belongs to.
type clientTap struct {
	framesOut atomic.Int64
	rttNs     atomic.Int64
	curSpan   atomic.Uint64
	tid       uint64
}

type pendingReq struct {
	start  time.Time
	parent uint64
}

// tapConn counts one socket. An accepted socket learns its class
// lazily, on its first Read or Write: by then the dialing side, which
// registers its local address before it returns the connection, has
// written its first frame.
type tapConn struct {
	net.Conn
	t *tap
	// cls is the link class, -1 until an accepted socket learns it.
	cls    atomic.Int32
	dialed bool
	owner  *clientTap

	// Traced only. out is touched by writers (serialized by the
	// program's own write path), in by the single reader goroutine.
	outMu   sync.Mutex
	out     frameScanner
	in      frameScanner
	pmu     sync.Mutex
	pending map[uint32]pendingReq
}

func (c *tapConn) classify() linkClass {
	if cl := c.cls.Load(); cl >= 0 {
		return linkClass(cl)
	}
	c.t.mu.Lock()
	cl, ok := c.t.byLocal[c.RemoteAddr().String()]
	c.t.mu.Unlock()
	if !ok {
		return linkClient
	}
	c.cls.Store(int32(cl))
	return cl
}

func (c *tapConn) Write(b []byte) (int, error) {
	class := c.classify()
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.t.bytes[class].Add(int64(n))
	if c.t.traced && n > 0 {
		c.outMu.Lock()
		c.out.feed(b[:n], func(id uint32) {
			c.t.frames[class].Add(1)
			if c.owner != nil {
				c.owner.framesOut.Add(1)
			}
			if c.dialed && id != 0 {
				var parent uint64
				if c.owner != nil {
					parent = c.owner.curSpan.Load()
				}
				c.pmu.Lock()
				c.pending[id] = pendingReq{start: start, parent: parent}
				c.pmu.Unlock()
			}
		})
		c.outMu.Unlock()
	}
	return n, err
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.t.traced && c.dialed && n > 0 {
		class := c.classify()
		c.in.feed(b[:n], func(id uint32) {
			if id == 0 {
				return
			}
			c.pmu.Lock()
			p, ok := c.pending[id]
			delete(c.pending, id)
			c.pmu.Unlock()
			if !ok {
				return
			}
			end := time.Now()
			d := end.Sub(p.start)
			c.t.mu.Lock()
			c.t.rtt[class].add(d)
			c.t.mu.Unlock()
			var tid uint64
			switch class {
			case linkClient:
				if c.owner != nil {
					c.owner.rttNs.Add(int64(d))
					tid = c.owner.tid
				}
			case linkPeer:
				tid = tidPeer
			case linkUpstream:
				tid = tidUpstream
			}
			c.t.rec.add(c.t.rec.newID(), "transport."+linkNames[class]+"_rtt", p.parent, p.start, end, tid)
		})
	}
	return n, err
}

// frameScanner follows frame boundaries in a byte stream. A frame is
// a 9-byte header — u32 payload length, u32 request id, u8 type —
// followed by the payload (PROTOCOL.md).
type frameScanner struct {
	hdr    [9]byte
	hn     int
	id     uint32
	remain int
}

// feed consumes b and calls done with the id of every frame that
// ends inside it.
func (s *frameScanner) feed(b []byte, done func(id uint32)) {
	for len(b) > 0 {
		if s.hn < len(s.hdr) {
			k := copy(s.hdr[s.hn:], b)
			s.hn += k
			b = b[k:]
			if s.hn < len(s.hdr) {
				return
			}
			s.remain = int(binary.BigEndian.Uint32(s.hdr[0:4]))
			s.id = binary.BigEndian.Uint32(s.hdr[4:8])
			if s.remain == 0 {
				s.hn = 0
				done(s.id)
				continue
			}
		}
		k := s.remain
		if k > len(b) {
			k = len(b)
		}
		s.remain -= k
		b = b[k:]
		if s.remain == 0 {
			s.hn = 0
			done(s.id)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
