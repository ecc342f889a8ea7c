// Package tcpnet provides a real-network Transport for GridVine peers.
// Each registered peer listens on a local TCP socket, and messages are
// exchanged as gob-encoded request/response frames. It implements
// simnet.Registrar, so the overlay builders work unchanged over TCP — the
// configuration used by the daemons, the multi-process-style integration
// tests and the gridvine CLI's --tcp mode.
//
// Send carries each exchange over a pooled, persistent connection. A
// connection holds one long-lived gob encoder and decoder, so payload
// types are described once per connection rather than once per message.
// A Send checks a connection out of its destination address's idle list
// (dialing only when the list is empty), has it to itself for the one
// exchange, and returns it to the list only when the exchange completes
// cleanly. All peers hosted by one Transport share the idle lists, which
// are capped at maxIdlePerAddr connections each. A connection taken from
// the idle list that fails before any reply byte arrives — typically
// because the destination restarted on the same port — is retried once
// on a fresh dial; the retry is not a new message in Stats.
package tcpnet

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/simnet"
)

// maxIdlePerAddr caps the idle connections kept per destination address.
// Each pooled connection holds gob codec state on both ends, so the cap
// bounds the memory a quiet pool retains; a burst above it dials extra
// connections and closes them after use.
const maxIdlePerAddr = 4

// request is the wire frame for one call.
type request struct {
	From simnet.PeerID
	Msg  simnet.Message
}

// response is the wire frame for one reply.
type response struct {
	Msg simnet.Message
	Err string
}

// Transport hosts peers on TCP sockets and sends to peers by their
// registered addresses over pooled connections. The zero value is not
// usable; call NewTransport.
type Transport struct {
	mu      sync.RWMutex
	addrs   map[simnet.PeerID]string
	servers map[simnet.PeerID]*server
	idle    map[string][]*conn // per destination address; the newest is last
	closed  bool

	// stats
	messages int
	dropped  int
	// Byte counters are atomic: conn tallies every gob chunk on the hot
	// send path, which must not contend on the transport mutex.
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	// dials counts connections opened by Send, so tests can observe reuse.
	dials atomic.Int64
}

// NewTransport returns an empty TCP transport.
func NewTransport() *Transport {
	return &Transport{
		addrs:   make(map[simnet.PeerID]string),
		servers: make(map[simnet.PeerID]*server),
		idle:    make(map[string][]*conn),
	}
}

// Register starts a TCP listener for the peer on an ephemeral localhost
// port and serves its handler until Close. Registering the same id again
// replaces the previous server. Implements simnet.Registrar.
func (t *Transport) Register(id simnet.PeerID, h simnet.Handler) {
	if _, err := t.RegisterOn(id, "127.0.0.1:0", h); err != nil {
		// Local ephemeral listen can only fail on resource exhaustion;
		// surface loudly.
		panic(fmt.Sprintf("tcpnet: listen for %s: %v", id, err))
	}
}

// RegisterOn is Register with a caller-chosen listen address (the
// daemon uses it to re-bind a peer to the port recorded before a
// restart, keeping cross-process address books valid). It returns the
// bound address. An addr of "127.0.0.1:0" selects an ephemeral port.
// Any previous server for id is shut down first, as Close shuts it down
// — also when the new listen then fails, in which case id is left
// unhosted.
func (t *Transport) RegisterOn(id simnet.PeerID, addr string, h simnet.Handler) (string, error) {
	t.mu.Lock()
	old, hadOld := t.servers[id]
	delete(t.servers, id)
	t.mu.Unlock()
	if hadOld {
		// The old listener may hold the very address we are binding;
		// release it (and drain its connections) before listening.
		old.stop()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	t.mu.Lock()
	t.servers[id] = srv
	t.addrs[id] = ln.Addr().String()
	t.mu.Unlock()

	srv.wg.Add(1)
	go srv.serve()
	return ln.Addr().String(), nil
}

// server is one hosted peer's listener and the connections it accepted.
type server struct {
	ln      net.Listener
	handler simnet.Handler
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool // stopped or severed: connections accepted late are refused
}

func (s *server) serve() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Connection handlers join the server's WaitGroup so stop returns
		// only after every in-flight handler has finished — the daemon
		// relies on this to snapshot with no overlay mutation still
		// running.
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// handleConn serves one persistent connection: a sequence of
// request/reply exchanges, one at a time, until the client closes it or
// the server stops.
func (s *server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	dec := gob.NewDecoder(nc)
	enc := gob.NewEncoder(nc)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return // closed by the client, stopped, or corrupt
		}
		msg, err := s.handler.HandleMessage(req.From, req.Msg)
		resp := response{Msg: msg}
		if err != nil {
			resp.Err = err.Error()
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// stop closes the listener and ends every accepted connection at its
// next request boundary: the read deadline is moved to now, so a handler
// already running finishes and writes its reply while the next request
// read fails at once. stop returns when every handler has finished.
func (s *server) stop() {
	s.ln.Close()
	s.mu.Lock()
	s.done = true
	for nc := range s.conns {
		nc.SetReadDeadline(time.Now()) //nolint:errcheck // a closed conn needs no deadline
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// sever closes the listener and every accepted connection at once, as a
// crash would, without waiting for running handlers.
func (s *server) sever() {
	s.ln.Close()
	s.mu.Lock()
	s.done = true
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}

// Addr returns the peer's listen address, or "" if unknown.
func (t *Transport) Addr(id simnet.PeerID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.addrs[id]
}

// AddPeer records a remote peer's address without hosting it locally —
// used when peers are spread across processes.
func (t *Transport) AddPeer(id simnet.PeerID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Send implements simnet.Transport: it performs one request/response
// exchange with the destination over a pooled connection. Connection
// failures surface as simnet.ErrUnreachable so the overlay's failure
// handling works identically over TCP. A dial honours ctx, and
// cancelling ctx while the exchange is in flight unblocks the socket
// immediately (the connection deadline is moved to now, and the
// connection is then closed rather than pooled), so a deadline-expired
// query never waits out a slow peer and a late reply is never read by
// another exchange.
func (t *Transport) Send(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	t.mu.Lock()
	t.messages++
	addr, ok := t.addrs[to]
	if !ok || t.closed {
		t.dropped++
		t.mu.Unlock()
		if !ok {
			return simnet.Message{}, fmt.Errorf("%w: %s (no address)", simnet.ErrUnreachable, to)
		}
		return simnet.Message{}, fmt.Errorf("%w: transport closed", simnet.ErrUnreachable)
	}
	if err := ctx.Err(); err != nil {
		t.mu.Unlock()
		return simnet.Message{}, err
	}
	c := t.takeIdle(addr)
	t.mu.Unlock()

	for {
		pooled := c != nil
		if !pooled {
			var err error
			if c, err = t.dial(ctx, addr); err != nil {
				return simnet.Message{}, t.unreachable(ctx, to, err)
			}
		}
		resp, reusable, err := c.exchange(ctx, from, msg)
		if err == nil {
			if reusable {
				t.release(addr, c)
			} else {
				c.Close()
			}
			if resp.Err != "" {
				return simnet.Message{}, errors.New(resp.Err)
			}
			return resp.Msg, nil
		}
		c.Close()
		// A pooled connection that broke before any reply byte arrived was
		// stale (its server stopped since it was pooled): retry once on a
		// fresh dial. Should the server instead have died mid-handler, the
		// retry re-delivers the request; overlay handlers tolerate that as
		// they tolerate simnet.FaultPlan's duplicated messages.
		if pooled && !c.replied && ctx.Err() == nil {
			c = nil
			continue
		}
		return simnet.Message{}, t.unreachable(ctx, to, err)
	}
}

// unreachable turns a failed dial or exchange into Send's error: ctx's
// error when ctx fired, otherwise simnet.ErrUnreachable, counted as one
// dropped message.
func (t *Transport) unreachable(ctx context.Context, to simnet.PeerID, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	t.mu.Lock()
	t.dropped++
	t.mu.Unlock()
	return fmt.Errorf("%w: %s: %v", simnet.ErrUnreachable, to, err)
}

// takeIdle pops the newest idle connection to addr, or returns nil.
// t.mu must be held.
func (t *Transport) takeIdle(addr string) *conn {
	list := t.idle[addr]
	if len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	list[len(list)-1] = nil
	t.idle[addr] = list[:len(list)-1]
	return c
}

// release returns a cleanly finished connection to addr's idle list, or
// closes it when the list is full or the transport is closed.
func (t *Transport) release(addr string, c *conn) {
	t.mu.Lock()
	if !t.closed && len(t.idle[addr]) < maxIdlePerAddr {
		t.idle[addr] = append(t.idle[addr], c)
		c = nil
	}
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (t *Transport) dial(ctx context.Context, addr string) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	c := &conn{Conn: nc, t: t}
	c.enc = gob.NewEncoder(c)
	c.dec = gob.NewDecoder(c)
	return c, nil
}

// conn is one client connection with its long-lived codec pair. It
// tallies the bytes it moves into the owning transport's counters.
type conn struct {
	net.Conn
	t   *Transport
	enc *gob.Encoder
	dec *gob.Decoder
	// replied records whether the current exchange has read any byte.
	replied bool
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.t.bytesSent.Add(int64(n))
	}
	return n, err
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.replied = true
		c.t.bytesRecv.Add(int64(n))
	}
	return n, err
}

// exchange sends one request and reads its reply. reusable reports that
// the connection may go back to the pool: the exchange completed and
// ctx's cancellation hook never touched the connection's deadline.
func (c *conn) exchange(ctx context.Context, from simnet.PeerID, msg simnet.Message) (resp response, reusable bool, err error) {
	c.replied = false
	// Propagate cancellation into the blocking reads/writes: a fired ctx
	// forces an immediate deadline so the gob decode below unblocks.
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() {
			c.SetDeadline(time.Now()) //nolint:errcheck // the exchange then fails on its own
		})
	}
	if err = c.enc.Encode(request{From: from, Msg: msg}); err == nil {
		err = c.dec.Decode(&resp)
	}
	// stop reports false once the hook has run (or is running): the
	// deadline may be in the past, so the connection must not be reused.
	reusable = stop() && err == nil
	return resp, reusable, err
}

// Fail closes a peer's listener and severs its accepted connections,
// simulating a crash: the address stays registered, so pooled
// connections and fresh dials alike fail with connection errors.
func (t *Transport) Fail(id simnet.PeerID) {
	t.mu.Lock()
	srv, ok := t.servers[id]
	t.mu.Unlock()
	if ok {
		srv.sever()
	}
}

// Stats reports (attempted, dropped) message counts. Every
// simnet.ErrUnreachable that Send returns is one dropped message.
func (t *Transport) Stats() (messages, dropped int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.messages, t.dropped
}

// Bytes reports the wire volume this transport's outgoing calls have moved
// (gob-encoded request bytes sent, response bytes received) — the
// bandwidth counterpart of the message counters, so batched operations
// that collapse many exchanges into few still account for every byte they
// carry. Type descriptions are sent once per connection, so they are
// counted once per connection too.
func (t *Transport) Bytes() (sent, received int64) {
	return t.bytesSent.Load(), t.bytesRecv.Load()
}

// Close closes the idle pooled connections, shuts down every hosted
// listener, ends each accepted connection at its next request boundary,
// and waits for in-flight handlers to finish, so no handler invocation
// (and thus no store mutation or WAL append) is running once Close
// returns. Connections checked out by a running Send are closed when
// that exchange ends.
func (t *Transport) Close() {
	t.mu.Lock()
	t.closed = true
	servers := make([]*server, 0, len(t.servers))
	for _, s := range t.servers {
		servers = append(servers, s)
	}
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, list := range idle {
		for _, c := range list {
			c.Close()
		}
	}
	for _, s := range servers {
		s.stop()
	}
}

var _ simnet.Registrar = (*Transport)(nil)
