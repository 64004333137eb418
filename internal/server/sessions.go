package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Session transport (DESIGN.md §10). One accepted TCP connection is a
// wireConn carrying any number of logical sessions, each named by the
// frame-level session ID (internal/protocol session multiplexing).
// Session 0 is the connection's implicit session — the one every
// pre-mux client speaks — and behaves exactly like a PR-1-era
// connection: its frames are handled inline on the read loop, in
// order. Frames for non-zero sessions are handled on spawned
// goroutines, one per in-flight request, so a session blocked in a
// write-lock queue never stalls the connection's other sessions
// (no head-of-line blocking across sessions).
//
// All outbound frames funnel through one bounded queue drained by the
// connection's writer goroutine. Replies may block for queue space up
// to Options.WriteTimeout (then the whole connection is evicted as
// stuck); notifications never block — a notification that finds the
// session's bound or the connection queue full is shed, and shedding
// always evicts the session, because a subscriber that missed a
// Notify would serve stale reads forever believing itself current.

// Default transport bounds; see Options and CAPACITY.md.
const (
	// DefaultSessionSendQueue bounds outbound frames queued per
	// logical session.
	DefaultSessionSendQueue = 32
	// DefaultConnSendQueue bounds the per-connection writer queue.
	DefaultConnSendQueue = 1024
	// DefaultWriteTimeout bounds how long a reply waits for space in
	// the connection's writer queue.
	DefaultWriteTimeout = 10 * time.Second
)

// outFrame is one queued outbound frame. sess is nil for conn-level
// frames (errors for sessions that do not exist).
type outFrame struct {
	sess *session
	sid  uint32
	id   uint32
	m    protocol.Message
}

// wireConn is one accepted TCP connection and the logical sessions it
// carries.
type wireConn struct {
	srv  *Server
	conn net.Conn

	sendCh chan outFrame
	// dead is closed exactly once when the connection is being torn
	// down; senders select on it so they never block on a dying conn.
	dead     chan struct{}
	deadOnce sync.Once

	mu       sync.Mutex // guards sessions
	sessions map[uint32]*session

	// handlers tracks spawned per-request goroutines for non-zero
	// sessions; cleanup waits for them after releasing their locks.
	handlers sync.WaitGroup
}

// session is one logical client session. A pre-mux client is exactly
// one session (ID 0) on its own connection.
type session struct {
	srv *Server
	wc  *wireConn
	sid uint32

	name    string
	profile string

	// proxy marks a session created by (or upgraded with) ProxyHello: a
	// read fan-out proxy's upstream subscription, exempt from
	// MaxSessions admission. Guarded by srv.mu.
	proxy bool
	// exempt marks a session excluded from MaxSessions admission:
	// proxy sessions and sessions created by a cluster-plane RPC
	// (a peer's or proxy's gossip round trip). Guarded by srv.mu.
	exempt bool

	// queued counts outbound frames currently sitting in the writer
	// queue on this session's behalf; notifications are shed when it
	// reaches the per-session bound.
	queued atomic.Int32

	// closed flips once, before the session's segment state is swept.
	// Handlers re-check it under each segment lock before attaching
	// the session to that segment, which makes teardown race-free:
	// an attach either happens before the sweep's lock acquisition
	// (and is swept) or observes closed and refuses (see gone).
	closed atomic.Bool

	// touchedMu guards touched, the segments this session may have
	// attached state to (subscription, waiter, write lock). Cleanup
	// sweeps only these instead of the whole registry, which is what
	// keeps 100k-session churn off the registry snapshot path.
	touchedMu sync.Mutex
	touched   map[*segState]struct{}
}

// errSessionClosed is the reply for requests racing their session's
// teardown.
func errSessionClosed() *protocol.ErrorReply {
	return errReply(protocol.CodeNoSession, "session closed")
}

// gone reports whether the session has been torn down (evicted,
// closed, or its connection died).
func (sess *session) gone() bool { return sess.closed.Load() }

// touch records that the session may attach state to st, before doing
// so. Must be called before taking st.mu (never under it).
func (sess *session) touch(st *segState) {
	sess.touchedMu.Lock()
	if sess.touched == nil {
		sess.touched = make(map[*segState]struct{})
	}
	sess.touched[st] = struct{}{}
	sess.touchedMu.Unlock()
}

// newWireConn wraps an accepted connection.
func (s *Server) newWireConn(conn net.Conn) *wireConn {
	wc := &wireConn{
		srv:      s,
		conn:     conn,
		sendCh:   make(chan outFrame, s.connSendQueue),
		dead:     make(chan struct{}),
		sessions: make(map[uint32]*session),
	}
	return wc
}

// shut marks the connection dead (idempotent) and closes the socket,
// releasing the read loop, the writer goroutine, and every sender
// blocked on the queue.
func (wc *wireConn) shut() {
	wc.deadOnce.Do(func() {
		close(wc.dead)
		_ = wc.conn.Close()
	})
}

// writeLoop is the connection's single writer goroutine: it drains
// the queue and owns the socket for writes, so no handler ever does
// socket I/O directly (or under a segment lock).
func (wc *wireConn) writeLoop() {
	for {
		select {
		case f := <-wc.sendCh:
			err := protocol.WriteFrameMux(wc.conn, f.id, f.m, protocol.TraceContext{}, f.sid)
			if f.sess != nil {
				f.sess.queued.Add(-1)
			}
			if err != nil {
				wc.shut()
				return
			}
		case <-wc.dead:
			return
		}
	}
}

// serve runs the connection: the read loop plus session dispatch.
func (wc *wireConn) serve() {
	defer wc.cleanup()
	go wc.writeLoop()
	for {
		id, msg, tc, sid, err := protocol.ReadFrameMux(wc.conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				wc.srv.logf("conn %s: %v", wc.conn.RemoteAddr(), err)
			}
			return
		}
		if _, ok := msg.(*protocol.SessionClose); ok {
			wc.handleSessionClose(sid, id)
			continue
		}
		sess, refusal := wc.sessionFor(sid, msg)
		if refusal != nil {
			if !wc.sendConnLevel(sid, id, refusal) {
				return
			}
			continue
		}
		if sid == 0 {
			// The implicit session keeps the classic contract: strict
			// per-connection request ordering, handled inline.
			reply := sess.handle(msg, tc)
			if reply == nil {
				continue
			}
			if err := sess.send(id, reply); err != nil {
				return
			}
		} else {
			wc.handlers.Add(1)
			go func() {
				defer wc.handlers.Done()
				if srv := wc.srv; srv.flight != nil {
					defer srv.flight.DumpOnPanic(srv.crashw, "session request handler")
				}
				if reply := sess.handle(msg, tc); reply != nil {
					_ = sess.send(id, reply)
				}
			}()
		}
	}
}

// handleSessionClose tears down the addressed session (idempotently)
// and acks. Closing session 0 resets the implicit session's state but
// keeps the connection; a later frame recreates it fresh.
func (wc *wireConn) handleSessionClose(sid, id uint32) {
	wc.mu.Lock()
	sess := wc.sessions[sid]
	wc.mu.Unlock()
	if sess != nil {
		wc.srv.teardownSession(sess, "")
	}
	_ = wc.sendConnLevel(sid, id, &protocol.Ack{})
}

// sessionFor resolves the session a frame is addressed to, creating
// it lazily. A non-zero session must be created by a Hello (or a
// proxy's ProxyHello) — any other first frame is answered
// CodeNoSession (the ID is unknown: never created, or evicted).
// Creation passes admission control: when Options.MaxSessions is
// reached the frame is refused with CodeOverloaded and nothing is
// created. Proxy sessions are exempt from the cap and do not consume
// it: one proxy session stands in for thousands of direct client
// sessions, so refusing it to protect capacity would be backwards.
// Sessions created by a cluster-plane frame (gossip, replication,
// migration) are exempt for the same reason — they are peer
// infrastructure round trips, not client load.
func (wc *wireConn) sessionFor(sid uint32, msg protocol.Message) (*session, protocol.Message) {
	wc.mu.Lock()
	if sess, ok := wc.sessions[sid]; ok {
		wc.mu.Unlock()
		return sess, nil
	}
	wc.mu.Unlock()
	_, isProxy := msg.(*protocol.ProxyHello)
	exempt := isProxy || isClusterFrame(msg)
	if sid != 0 {
		if _, isHello := msg.(*protocol.Hello); !isHello && !isProxy {
			return nil, errReply(protocol.CodeNoSession, "no session %d on this connection (send Hello first)", sid)
		}
	}
	s := wc.srv
	sess := &session{srv: s, wc: wc, sid: sid}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errReply(protocol.CodeInternal, "server shutting down")
	}
	if !exempt && s.opts.MaxSessions > 0 && len(s.sessions)-s.exemptSessions >= s.opts.MaxSessions {
		if s.ins != nil {
			s.ins.sessionsRefused.Inc()
		}
		s.mu.Unlock()
		return nil, errReply(protocol.CodeOverloaded, "session cap %d reached", s.opts.MaxSessions)
	}
	s.sessions[sess] = struct{}{}
	if exempt {
		sess.exempt = true
		s.exemptSessions++
	}
	if isProxy {
		sess.proxy = true
		s.proxySessions++
	}
	if s.ins != nil {
		s.ins.sessions.Set(int64(len(s.sessions)))
		s.ins.sessionsOpened.Inc()
		if isProxy {
			s.ins.proxySessions.Set(int64(s.proxySessions))
		}
	}
	s.mu.Unlock()
	wc.mu.Lock()
	wc.sessions[sid] = sess
	wc.mu.Unlock()
	return sess, nil
}

// markProxySession upgrades an existing session to proxy status (the
// ProxyHello dispatch path — covers a session created earlier by a
// different first frame). Idempotent.
func (s *Server) markProxySession(sess *session) {
	s.mu.Lock()
	if !sess.proxy && !sess.closed.Load() {
		sess.proxy = true
		s.proxySessions++
		if !sess.exempt {
			sess.exempt = true
			s.exemptSessions++
		}
		if s.ins != nil {
			s.ins.proxySessions.Set(int64(s.proxySessions))
		}
	}
	s.mu.Unlock()
}

// isClusterFrame reports whether msg is a cluster-plane RPC
// (gossip, replication, migration). A session created by one of these
// carries a peer server's or proxy's infrastructure round trips —
// usually on a pooled peer connection — not client load, so it
// bypasses MaxSessions admission and does not consume the budget.
func isClusterFrame(msg protocol.Message) bool {
	switch msg.(type) {
	case *protocol.RingGet, *protocol.RingPush, *protocol.Replicate,
		*protocol.Pull, *protocol.Migrate:
		return true
	}
	return false
}

// sendConnLevel queues a frame that belongs to no live session (a
// refusal, or a SessionClose ack). It blocks for queue space up to
// the write timeout; false means the connection is being torn down.
func (wc *wireConn) sendConnLevel(sid, id uint32, m protocol.Message) bool {
	f := outFrame{sid: sid, id: id, m: m}
	t := time.NewTimer(wc.srv.writeTimeout)
	defer t.Stop()
	select {
	case wc.sendCh <- f:
		return true
	case <-wc.dead:
		return false
	case <-t.C:
		wc.shut()
		return false
	}
}

// send queues a reply for the session. Replies are allowed to block
// for queue space — the requester is waiting for exactly this frame —
// but only up to the write timeout: a connection that cannot drain a
// reply for that long is stuck, and is evicted whole.
func (sess *session) send(id uint32, m protocol.Message) error {
	wc := sess.wc
	if sess.gone() {
		// The session died while this request was in flight. Still
		// deliver the reply (addressed to the dead session ID) so the
		// client's pending call resolves instead of hanging; the
		// client already knows — or learns on its next frame — that
		// the session is gone.
		if !wc.sendConnLevel(sess.sid, id, m) {
			return net.ErrClosed
		}
		return nil
	}
	sess.queued.Add(1)
	f := outFrame{sess: sess, sid: sess.sid, id: id, m: m}
	select {
	case wc.sendCh <- f:
		return nil
	default:
	}
	t := time.NewTimer(sess.srv.writeTimeout)
	defer t.Stop()
	select {
	case wc.sendCh <- f:
		return nil
	case <-wc.dead:
		sess.queued.Add(-1)
		return net.ErrClosed
	case <-t.C:
		sess.queued.Add(-1)
		sess.srv.logf("conn %s: reply stuck for %v, evicting", wc.conn.RemoteAddr(), sess.srv.writeTimeout)
		wc.shut()
		return errors.New("write timeout")
	}
}

// sendNotify queues a Notify without ever blocking. A session over
// its queue bound — or a full connection queue — sheds the
// notification, and shedding evicts: a subscriber that missed a
// Notify would trust stale data forever, so the session is torn down
// and the client re-establishes it (re-validating by version, exactly
// as after a reconnect). For the implicit session the connection IS
// the session, so the whole connection goes.
func (sess *session) sendNotify(m protocol.Message) {
	if why := sess.queueNotify(m); why != "" {
		sess.shed(why)
	}
}

// queueNotify is sendNotify without the eviction: it reports why the
// session must be shed, or "" when m was queued or the session is
// already gone. It takes no segment lock, so a caller may hold some.
func (sess *session) queueNotify(m protocol.Message) string {
	s := sess.srv
	if sess.gone() {
		return ""
	}
	wc := sess.wc
	if int(sess.queued.Load()) >= s.sessionSendQueue {
		return "session queue bound"
	}
	sess.queued.Add(1)
	select {
	case wc.sendCh <- outFrame{sess: sess, sid: sess.sid, id: 0, m: m}:
	case <-wc.dead:
		sess.queued.Add(-1)
	default:
		sess.queued.Add(-1)
		return "connection queue full"
	}
	return ""
}

// shed counts one shed notification and evicts the slow consumer.
func (sess *session) shed(why string) {
	s := sess.srv
	if s.ins != nil {
		s.ins.shed.Inc()
	}
	s.logf("conn %s session %d: shedding slow consumer (%s)", sess.wc.conn.RemoteAddr(), sess.sid, why)
	s.teardownSession(sess, why)
}

// teardownSession removes one logical session and releases everything
// it holds. Idempotent. When evictReason is non-empty the teardown is
// an eviction: it is counted, the client gets a best-effort
// unsolicited CodeOverloaded error on the session, and — for the
// implicit session — the connection is closed (a pre-mux client has
// no way to learn its only session died otherwise).
func (s *Server) teardownSession(sess *session, evictReason string) {
	if !sess.closed.CompareAndSwap(false, true) {
		return
	}
	wc := sess.wc
	wc.mu.Lock()
	if wc.sessions[sess.sid] == sess {
		delete(wc.sessions, sess.sid)
	}
	wc.mu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess)
	if sess.proxy {
		s.proxySessions--
		if s.ins != nil {
			s.ins.proxySessions.Set(int64(s.proxySessions))
		}
	}
	if sess.exempt {
		s.exemptSessions--
	}
	if s.ins != nil {
		s.ins.sessions.Set(int64(len(s.sessions)))
		if evictReason != "" {
			s.ins.sessionsEvicted.Inc()
		}
	}
	s.mu.Unlock()
	if s.flight != nil && evictReason != "" {
		s.flight.Record(obs.Event{Name: "session.evict", Err: evictReason, N: int64(sess.sid)})
	}
	sess.sweepSegments()
	if evictReason == "" {
		return
	}
	if sess.sid == 0 {
		wc.shut()
		return
	}
	// Best-effort: tell the client its session was shed. Non-blocking;
	// if the queue is full the client finds out via CodeNoSession on
	// its next frame.
	select {
	case wc.sendCh <- outFrame{sid: sess.sid, id: 0, m: errReply(protocol.CodeOverloaded, "session evicted: %s", evictReason)}:
	default:
	}
}

// sweepSegments releases the session's per-segment state: its
// subscription, queued waiters, and any held write lock — but only on
// segments the session touched, not the whole registry. closed is
// already set, so handlers racing this sweep either attached before a
// given segment's lock acquisition here (and are released here) or
// observe closed under that lock and refuse to attach.
func (sess *session) sweepSegments() {
	s := sess.srv
	sess.touchedMu.Lock()
	touched := make([]*segState, 0, len(sess.touched))
	for st := range sess.touched {
		touched = append(touched, st)
	}
	sess.touched = nil
	sess.touchedMu.Unlock()
	for _, st := range touched {
		s.lockSeg(st)
		delete(st.subs, sess)
		kept := st.waiters[:0]
		for _, w := range st.waiters {
			if w.sess == sess {
				close(w.ch) // its handler observes gone() and bows out
				continue
			}
			kept = append(kept, w)
		}
		st.waiters = kept
		releaseWriter(st, sess)
		st.mu.Unlock()
	}
}

// cleanup tears the connection down: every session it carries, then
// the spawned handlers (released by the session sweeps), then the
// connection's registration.
func (wc *wireConn) cleanup() {
	wc.shut()
	wc.mu.Lock()
	sessions := make([]*session, 0, len(wc.sessions))
	for _, sess := range wc.sessions {
		sessions = append(sessions, sess)
	}
	wc.mu.Unlock()
	for _, sess := range sessions {
		wc.srv.teardownSession(sess, "")
	}
	wc.handlers.Wait()
	s := wc.srv
	s.mu.Lock()
	delete(s.conns, wc)
	if s.ins != nil {
		s.ins.conns.Set(int64(len(s.conns)))
	}
	s.mu.Unlock()
}
