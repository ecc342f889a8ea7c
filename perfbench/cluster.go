package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"gridvine/internal/daemon"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/tcpnet"
	"gridvine/internal/wire"
)

// cluster is a running 4-daemon deployment inside the benchmark process.
type cluster interface {
	clientAddrs() []string
	// restart shuts daemon i down and starts it again.
	restart(i int) (restartStats, error)
	close() error
}

// restartStats times one daemon restart and carries the digests the
// restart must preserve.
type restartStats struct {
	total       time.Duration // Shutdown called → restarted daemon serving
	shutdown    time.Duration
	recoverOpen time.Duration // traced only: Σ store.Open over hosted peers
	replay      time.Duration // traced only: Σ mediation.NewDurablePeer
	final       map[string]uint64
	recovered   map[string]uint64
}

func shutdownCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}

// waitServing returns once addr answers a stats request over the wire.
func waitServing(addr string) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = c.Stats(ctx)
	return err
}

// startAll runs start(i) for every daemon concurrently (each daemon
// waits for its siblings' addresses) and returns the first error.
func startAll(start func(i int) error) error {
	errs := make([]error, numDaemons)
	var wg sync.WaitGroup
	for i := 0; i < numDaemons; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = start(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- untraced: the product path, daemon.Start ---------------------------

type daemonCluster struct {
	cfgs []daemon.Config
	ds   []*daemon.Daemon
}

func startDaemonCluster(dir string, seed int64) (cluster, error) {
	c := &daemonCluster{cfgs: make([]daemon.Config, numDaemons), ds: make([]*daemon.Daemon, numDaemons)}
	for i := range c.cfgs {
		c.cfgs[i] = daemon.Config{Dir: dir, Index: i, Daemons: numDaemons, Peers: numPeers,
			ReplicaFactor: replicaFactor, Seed: seed}
	}
	err := startAll(func(i int) error {
		d, err := daemon.Start(c.cfgs[i])
		c.ds[i] = d
		return err
	})
	if err != nil {
		c.close() //nolint:errcheck // the start error is the one to report
		return nil, err
	}
	return c, nil
}

func (c *daemonCluster) clientAddrs() []string {
	out := make([]string, len(c.ds))
	for i, d := range c.ds {
		out[i] = d.ClientAddr()
	}
	return out
}

func (c *daemonCluster) restart(i int) (restartStats, error) {
	var st restartStats
	ctx, cancel := shutdownCtx()
	defer cancel()
	start := time.Now()
	if err := c.ds[i].Shutdown(ctx); err != nil {
		return st, fmt.Errorf("shutdown daemon %d: %w", i, err)
	}
	st.shutdown = time.Since(start)
	st.final = c.ds[i].FinalDigests()
	c.ds[i] = nil
	d, err := daemon.Start(c.cfgs[i])
	if err != nil {
		return st, fmt.Errorf("restart daemon %d: %w", i, err)
	}
	c.ds[i] = d
	if err := waitServing(d.ClientAddr()); err != nil {
		return st, fmt.Errorf("restarted daemon %d not serving: %w", i, err)
	}
	st.total = time.Since(start)
	st.recovered = d.RecoveredDigests()
	return st, nil
}

func (c *daemonCluster) close() error {
	ctx, cancel := shutdownCtx()
	defer cancel()
	var first error
	for i, d := range c.ds {
		if d == nil {
			continue
		}
		if err := d.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		c.ds[i] = nil
	}
	return first
}

// --- traced: the same cluster assembled from daemon.Start's constructors -

// tracedDaemon is one daemon built the way daemon.Start builds it —
// pgrid.Build over a staging registrar, store.Open + NewDurablePeer per
// hosted peer before any listener exists, tcpnet.RegisterOn, then a
// wire server — with timing wrappers at the Registrar, Handler, FS and
// File interfaces those constructors take. daemon.Start hard-wires
// tcpnet and OsFS, which is why the traced run cannot call it.
type tracedDaemon struct {
	index     int
	transport *tcpnet.Transport
	server    *wire.Server
	ln        net.Listener
	serveDone chan struct{}
	hosted    []tracedPeer
	recovered map[string]uint64
	// open and replay sum store.Open and NewDurablePeer over the hosted
	// peers.
	open, replay time.Duration
}

type tracedPeer struct {
	id   string
	peer *mediation.Peer
	log  *store.Log
}

type tracedCluster struct {
	dir   string
	seed  int64
	rec   *recorder
	fs    *tracedFS
	ds    []*tracedDaemon
	addrs map[string]string // overlay peer → listen address
	// clientAddr keeps each daemon's client address across restarts.
	clientAddr []string
}

func startTracedCluster(dir string, seed int64, rec *recorder) (cluster, error) {
	c := &tracedCluster{dir: dir, seed: seed, rec: rec, fs: newTracedFS(rec),
		ds: make([]*tracedDaemon, numDaemons), addrs: map[string]string{}, clientAddr: make([]string, numDaemons)}
	var mu sync.Mutex
	err := startAll(func(i int) error {
		d, err := c.open(i, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		c.ds[i] = d
		for _, h := range d.hosted {
			c.addrs[h.id] = d.transport.Addr(simnet.PeerID(h.id))
		}
		mu.Unlock()
		return nil
	})
	if err == nil {
		for _, d := range c.ds {
			err = c.serve(d)
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		c.close() //nolint:errcheck // the start error is the one to report
		return nil, err
	}
	return c, nil
}

// open builds daemon i's overlay view, recovers its journals and binds
// its peer listeners, on the addresses in prev when it has them.
func (c *tracedCluster) open(i int, prev map[string]string) (*tracedDaemon, error) {
	t := tcpnet.NewTransport()
	stage := &tracedRegistrar{send: t.Send, rec: c.rec, handlers: map[simnet.PeerID]simnet.Handler{}}
	ov, err := pgrid.Build(stage, pgrid.BuildOptions{
		Peers:         numPeers,
		ReplicaFactor: replicaFactor,
		Rng:           rand.New(rand.NewSource(c.seed)),
	})
	if err != nil {
		return nil, err
	}
	d := &tracedDaemon{index: i, transport: t, recovered: map[string]uint64{}, serveDone: make(chan struct{})}
	fail := func(err error) (*tracedDaemon, error) {
		for _, h := range d.hosted {
			h.log.Close() //nolint:errcheck // already failing
		}
		t.Close()
		return nil, err
	}
	for k, node := range ov.Nodes() {
		if k%numDaemons != i {
			continue
		}
		id := string(node.ID())
		openStart := time.Now()
		l, recov, err := store.Open(c.fs, filepath.Join(c.dir, "data", id), store.Options{})
		d.open += time.Since(openStart)
		if err != nil {
			return fail(fmt.Errorf("traced daemon %d: open journal for %s: %w", i, id, err))
		}
		replayStart := time.Now()
		p, err := mediation.NewDurablePeer(node, l, recov)
		d.replay += time.Since(replayStart)
		if err != nil {
			l.Close() //nolint:errcheck // already failing
			return fail(fmt.Errorf("traced daemon %d: restore %s: %w", i, id, err))
		}
		d.recovered[id] = node.ContentDigest()
		addr := "127.0.0.1:0"
		if a := prev[id]; a != "" {
			addr = a
		}
		if _, err := t.RegisterOn(node.ID(), addr, stage.handlers[node.ID()]); err != nil {
			l.Close() //nolint:errcheck // already failing
			return fail(fmt.Errorf("traced daemon %d: listen for %s: %w", i, id, err))
		}
		d.hosted = append(d.hosted, tracedPeer{id: id, peer: p, log: l})
	}
	return d, nil
}

// serve teaches d every sibling peer's address and starts its wire
// server.
func (c *tracedCluster) serve(d *tracedDaemon) error {
	for id, a := range c.addrs {
		if d.transport.Addr(simnet.PeerID(id)) == "" {
			d.transport.AddPeer(simnet.PeerID(id), a)
		}
	}
	caddr := c.clientAddr[d.index]
	if caddr == "" {
		caddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", caddr)
	if err != nil {
		return fmt.Errorf("traced daemon %d: client listen: %w", d.index, err)
	}
	d.ln = ln
	c.clientAddr[d.index] = ln.Addr().String()
	hosted := make([]wire.Hosted, len(d.hosted))
	for i, h := range d.hosted {
		hosted[i] = wire.Hosted{Peer: h.peer, Digest: h.peer.Node().ContentDigest, WALSeq: h.log.Seq}
	}
	d.server = wire.NewServerOptions(d.index, hosted, wire.Options{})
	go func() {
		d.server.Serve(ln)
		close(d.serveDone)
	}()
	return nil
}

// shutdown mirrors daemon.Shutdown's order: drain wire clients, close
// the overlay transport, then snapshot and close each journal.
func (d *tracedDaemon) shutdown(ctx context.Context) (map[string]uint64, error) {
	var first error
	if d.server != nil {
		first = d.server.Shutdown(ctx)
		<-d.serveDone
	}
	d.transport.Close()
	final := map[string]uint64{}
	for _, h := range d.hosted {
		if err := h.log.Snapshot(); err != nil && first == nil {
			first = err
		}
		final[h.id] = h.peer.Node().ContentDigest()
		if err := h.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return final, first
}

func (c *tracedCluster) clientAddrs() []string { return append([]string(nil), c.clientAddr...) }

func (c *tracedCluster) restart(i int) (restartStats, error) {
	var st restartStats
	ctx, cancel := shutdownCtx()
	defer cancel()
	start := time.Now()
	final, err := c.ds[i].shutdown(ctx)
	c.ds[i] = nil
	if err != nil {
		return st, fmt.Errorf("shutdown traced daemon %d: %w", i, err)
	}
	st.shutdown = time.Since(start)
	st.final = final
	d, err := c.open(i, c.addrs)
	if err != nil {
		return st, err
	}
	c.ds[i] = d
	if err := c.serve(d); err != nil {
		return st, err
	}
	if err := waitServing(c.clientAddr[i]); err != nil {
		return st, fmt.Errorf("restarted traced daemon %d not serving: %w", i, err)
	}
	st.total = time.Since(start)
	st.recoverOpen = d.open
	st.replay = d.replay
	st.recovered = d.recovered
	return st, nil
}

func (c *tracedCluster) close() error {
	ctx, cancel := shutdownCtx()
	defer cancel()
	var first error
	for i, d := range c.ds {
		if d == nil {
			continue
		}
		if _, err := d.shutdown(ctx); err != nil && first == nil {
			first = err
		}
		c.ds[i] = nil
	}
	return first
}
