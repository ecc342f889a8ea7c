package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

func TestSendReceiveRoundtrip(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("echo", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "re:" + msg.Type, Payload: msg.Payload}, nil
	}))
	resp, err := tr.Send(context.Background(), "client", "echo", simnet.Message{Type: "ping", Payload: "hello"})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp.Type != "re:ping" || resp.Payload != "hello" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	_, err := tr.Send(context.Background(), "a", "ghost", simnet.Message{Type: "x"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("failing", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, errors.New("handler exploded")
	}))
	_, err := tr.Send(context.Background(), "a", "failing", simnet.Message{Type: "x"})
	if err == nil || err.Error() != "handler exploded" {
		t.Errorf("err = %v", err)
	}
}

func TestFailSimulatesCrash(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("victim", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "ok"}, nil
	}))
	if _, err := tr.Send(context.Background(), "a", "victim", simnet.Message{Type: "x"}); err != nil {
		t.Fatalf("pre-crash send: %v", err)
	}
	tr.Fail("victim")
	if _, err := tr.Send(context.Background(), "a", "victim", simnet.Message{Type: "x"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("post-crash err = %v", err)
	}
}

func TestStats(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	h := simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	addr, err := tr.RegisterOn("p", "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr.Send(ctx, "a", "p", simnet.Message{})
	tr.Send(ctx, "a", "ghost", simnet.Message{})
	msgs, dropped := tr.Stats()
	if msgs != 2 || dropped != 1 {
		t.Errorf("stats = %d/%d, want 2/1", msgs, dropped)
	}

	// A peer that accepts and hangs up mid-exchange: the dial succeeds,
	// the exchange fails, and the ErrUnreachable counts as one drop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	tr.AddPeer("hangup", ln.Addr().String())
	if _, err := tr.Send(ctx, "a", "hangup", simnet.Message{}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("hangup err = %v, want ErrUnreachable", err)
	}
	if msgs, dropped := tr.Stats(); msgs != 3 || dropped != 2 {
		t.Errorf("after mid-exchange failure: stats = %d/%d, want 3/2", msgs, dropped)
	}

	// Re-binding p leaves the pooled connection to it stale; the retry on
	// a fresh dial is neither a drop nor an extra message.
	if _, err := tr.RegisterOn("p", addr, h); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{}); err != nil {
		t.Fatalf("send over stale pooled connection: %v", err)
	}
	if msgs, dropped := tr.Stats(); msgs != 4 || dropped != 2 {
		t.Errorf("after stale retry: stats = %d/%d, want 4/2", msgs, dropped)
	}
}

func TestSendAfterClose(t *testing.T) {
	tr := NewTransport()
	tr.Register("p", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	}))
	tr.Close()
	if _, err := tr.Send(context.Background(), "a", "p", simnet.Message{}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestAddPeerExternalAddress(t *testing.T) {
	// Two transports = two "processes": B hosts, A knows B's address.
	host := NewTransport()
	defer host.Close()
	host.Register("remote", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "from-remote"}, nil
	}))
	client := NewTransport()
	defer client.Close()
	client.AddPeer("remote", host.Addr("remote"))
	resp, err := client.Send(context.Background(), "local", "remote", simnet.Message{Type: "x"})
	if err != nil {
		t.Fatalf("cross-transport send: %v", err)
	}
	if resp.Type != "from-remote" {
		t.Errorf("resp = %+v", resp)
	}
}

// TestOverlayOverTCP runs a full P-Grid overlay over real TCP sockets:
// build, update, retrieve, from several issuers.
func TestOverlayOverTCP(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	ov, err := pgrid.Build(tr, pgrid.BuildOptions{
		Peers:         8,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatalf("Build over TCP: %v", err)
	}
	key := keyspace.HashDefault("tcp-item")
	if _, err := ov.Nodes()[0].Update(context.Background(), key, "tcp-value"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	for _, issuer := range ov.Nodes()[:4] {
		values, route, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("Retrieve from %s: %v", issuer.ID(), err)
		}
		if len(values) != 1 || values[0] != "tcp-value" {
			t.Errorf("values = %v (route %+v)", values, route)
		}
	}
}

// TestMessageCountsMatchSimnet runs the same serial overlay workload over
// simnet and over tcpnet: the pooled transport sends exactly the messages
// the in-memory network delivers, no more (a retry is not a message) and
// no fewer.
func TestMessageCountsMatchSimnet(t *testing.T) {
	run := func(reg simnet.Registrar) {
		ov, err := pgrid.Build(reg, pgrid.BuildOptions{Peers: 8, ReplicaFactor: 2, Rng: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		ctx := context.Background()
		nodes := ov.Nodes()
		for i := 0; i < 20; i++ {
			key := keyspace.HashDefault(fmt.Sprint("item-", i))
			if _, err := nodes[i%len(nodes)].Update(ctx, key, i); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if _, _, err := nodes[(i+3)%len(nodes)].Retrieve(ctx, key); err != nil {
				t.Fatalf("Retrieve: %v", err)
			}
		}
	}
	sim := simnet.NewNetwork()
	run(sim)
	tr := NewTransport()
	defer tr.Close()
	run(tr)
	msgs, dropped := tr.Stats()
	if msgs == 0 {
		t.Fatal("the workload sent no messages")
	}
	if want := sim.Stats(); msgs != want.Messages || dropped != want.Dropped {
		t.Errorf("tcpnet stats = %d/%d, simnet = %d/%d", msgs, dropped, want.Messages, want.Dropped)
	}
}

// TestMediationOverTCP exercises the full mediation stack — triples,
// schemas, mappings, reformulation — across TCP, proving all payloads are
// gob-clean.
func TestMediationOverTCP(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	ov, err := pgrid.Build(tr, pgrid.BuildOptions{
		Peers:         8,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	peers := make([]*mediation.Peer, 0, 8)
	for _, n := range ov.Nodes() {
		peers = append(peers, mediation.NewPeer(n))
	}

	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "NEN94295-05", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"})
	peers[0].InsertSchemaContext(context.Background(), schema.NewSchema("EMBL", "bio", "Organism"))
	peers[0].InsertSchemaContext(context.Background(), schema.NewSchema("EMP", "bio", "SystematicName"))
	m := schema.NewMapping("EMBL", "EMP", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 1},
	})
	m.Bidirectional = true
	peers[0].InsertMappingContext(context.Background(), m)

	for _, mode := range []mediation.Mode{mediation.Iterative, mediation.Recursive} {
		q := triple.Pattern{S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.LikeTerm("%Aspergillus%")}
		cur, err := peers[5].Query(context.Background(), mediation.Request{Pattern: &q, Reformulate: true, Options: mediation.SearchOptions{Mode: mode}})
		if err != nil {
			t.Fatalf("[%v] search over TCP: %v", mode, err)
		}
		rs, err := mediation.CollectPattern(context.Background(), cur)
		if err != nil {
			t.Fatalf("[%v] search over TCP: %v", mode, err)
		}
		if len(rs.Results) != 2 {
			t.Errorf("[%v] results = %d, want 2 (both schemas)", mode, len(rs.Results))
		}
	}

	// Schema lookup over TCP.
	s, err := peers[3].LookupSchema(context.Background(), "EMBL")
	if err != nil || s.Name != "EMBL" {
		t.Errorf("LookupSchema = %+v err=%v", s, err)
	}

	// Domain registry over TCP.
	peers[1].ReportDomainDegree(context.Background(), "bio", "EMBL", 1, 1)
	peers[1].ReportDomainDegree(context.Background(), "bio", "EMP", 1, 1)
	report, err := peers[6].DomainConnectivity(context.Background(), "bio")
	if err != nil {
		t.Fatalf("DomainConnectivity: %v", err)
	}
	if report.Schemas != 2 || report.CI != 0 {
		t.Errorf("report = %+v", report)
	}
}

func TestSendHonorsContextCancellation(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	release := make(chan struct{})
	tr.Register("slow", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		<-release
		return simnet.Message{Type: "late"}, nil
	}))
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Send(ctx, "a", "slow", simnet.Message{Type: "x"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-bound send took %v — the read did not unblock", elapsed)
	}
}

func TestSendPreCancelled(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRegisterOnReusesAddress proves a peer can re-bind to the exact
// address it held before (the daemon restart path: the address book
// other processes hold stays valid), and that the bound address is
// reported back.
func TestRegisterOnReusesAddress(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	echo := simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return msg, nil
	})
	addr, err := tr.RegisterOn("p", "127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	if addr != tr.Addr("p") {
		t.Fatalf("RegisterOn returned %q, Addr reports %q", addr, tr.Addr("p"))
	}
	ctx := context.Background()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "x"}); err != nil {
		t.Fatalf("send before re-bind: %v", err)
	}

	// Re-register on the same concrete address: the old listener is
	// replaced and the address book entry still routes.
	addr2, err := tr.RegisterOn("p", addr, echo)
	if err != nil {
		t.Fatalf("re-bind to %s: %v", addr, err)
	}
	if addr2 != addr {
		t.Fatalf("re-bind moved the peer: %q -> %q", addr, addr2)
	}
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "y"}); err != nil {
		t.Fatalf("send after re-bind: %v", err)
	}

	// A genuinely taken address must error, not panic.
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	if _, err := tr.RegisterOn("q", occupied.Addr().String(), echo); err == nil {
		t.Fatal("RegisterOn on an occupied address succeeded")
	}
}

// echoHandler replies with the request's type and payload.
var echoHandler = simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	return msg, nil
})

func TestPoolReusesOneConnection(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("echo", echoHandler)
	for i := 0; i < 50; i++ {
		resp, err := tr.Send(context.Background(), "a", "echo", simnet.Message{Type: "x", Payload: i})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if resp.Payload != i {
			t.Fatalf("send %d: reply payload %v", i, resp.Payload)
		}
	}
	if n := tr.dials.Load(); n != 1 {
		t.Errorf("50 sequential sends dialed %d connections, want 1", n)
	}
}

func TestPoolConcurrentSendsGetOwnReplies(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("echo", echoHandler)
	const senders, rounds = 64, 10
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := fmt.Sprintf("payload-%d-%d", g, r)
				resp, err := tr.Send(context.Background(), "a", "echo", simnet.Message{Type: "x", Payload: want})
				if err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
				if resp.Payload != want {
					t.Errorf("sender %d got %v, want %s", g, resp.Payload, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if msgs, dropped := tr.Stats(); msgs != senders*rounds || dropped != 0 {
		t.Errorf("stats = %d/%d, want %d/0", msgs, dropped, senders*rounds)
	}
}

// TestPoolCancelledSendIsNotReused cancels an exchange whose handler is
// still running, lets the late reply go out, and checks the next send to
// the same peer reads its own reply over a fresh connection.
func TestPoolCancelledSendIsNotReused(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	release := make(chan struct{})
	handled := make(chan struct{}, 1)
	tr.Register("p", simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		if msg.Type == "slow" {
			<-release
			defer func() { handled <- struct{}{} }()
			return simnet.Message{Type: "late"}, nil
		}
		return simnet.Message{Type: "re:" + msg.Type}, nil
	}))
	ctx := context.Background()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "warm"}); err != nil {
		t.Fatal(err)
	}

	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := tr.Send(cctx, "a", "p", simnet.Message{Type: "slow"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow send err = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	<-handled // the late reply is on its way to the abandoned connection

	dials := tr.dials.Load()
	for i := 0; i < 3; i++ {
		resp, err := tr.Send(ctx, "a", "p", simnet.Message{Type: fmt.Sprint("next", i)})
		if err != nil {
			t.Fatalf("send after cancel: %v", err)
		}
		if want := fmt.Sprint("re:next", i); resp.Type != want {
			t.Fatalf("send after cancel got %q, want %q", resp.Type, want)
		}
	}
	if n := tr.dials.Load() - dials; n != 1 {
		t.Errorf("sends after the cancelled exchange dialed %d connections, want 1", n)
	}
	if _, dropped := tr.Stats(); dropped != 0 {
		t.Errorf("dropped = %d; a cancelled send is not a drop", dropped)
	}
}

// TestPoolRestartedPeer holds a pooled connection to a peer whose server
// is then closed and re-bound on the same address, as a daemon restart
// does: the next send retries on a fresh dial and reaches the new server
// exactly once.
func TestPoolRestartedPeer(t *testing.T) {
	host := NewTransport()
	addr, err := host.RegisterOn("p", "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTransport()
	defer client.Close()
	client.AddPeer("p", addr)
	ctx := context.Background()
	if _, err := client.Send(ctx, "a", "p", simnet.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	host.Close()

	restarted := NewTransport()
	defer restarted.Close()
	var calls atomic.Int32
	if _, err := restarted.RegisterOn("p", addr, simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		calls.Add(1)
		return simnet.Message{Type: "new"}, nil
	})); err != nil {
		t.Fatalf("re-bind %s: %v", addr, err)
	}
	resp, err := client.Send(ctx, "a", "p", simnet.Message{Type: "y"})
	if err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if resp.Type != "new" {
		t.Errorf("reply %q did not come from the restarted server", resp.Type)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("restarted handler ran %d times, want 1", n)
	}
	if n := client.dials.Load(); n != 2 {
		t.Errorf("dials = %d, want 2 (first send, then the retry)", n)
	}
	if msgs, dropped := client.Stats(); msgs != 2 || dropped != 0 {
		t.Errorf("stats = %d/%d, want 2/0", msgs, dropped)
	}
}

// TestCloseWithIdlePooledConns closes a host that has idle pooled
// connections from its own sends and from another transport's: Close
// returns promptly and no handler runs after it.
func TestCloseWithIdlePooledConns(t *testing.T) {
	host := NewTransport()
	var closed atomic.Bool
	h := simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		if closed.Load() {
			t.Error("handler ran after Close returned")
		}
		return msg, nil
	})
	host.Register("p", h)
	host.Register("q", h)
	client := NewTransport()
	defer client.Close()
	client.AddPeer("p", host.Addr("p"))
	ctx := context.Background()
	for _, send := range []func() error{
		func() error { _, err := host.Send(ctx, "q", "p", simnet.Message{}); return err },
		func() error { _, err := client.Send(ctx, "a", "p", simnet.Message{}); return err },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		host.Close()
		closed.Store(true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on idle pooled connections")
	}
	if _, err := client.Send(ctx, "a", "p", simnet.Message{}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("send to closed host: err = %v, want ErrUnreachable", err)
	}
}

// TestCloseLetsInFlightHandlerReply closes a host while a handler runs
// on a pooled connection: Close waits for the handler, and its reply
// still reaches the sender.
func TestCloseLetsInFlightHandlerReply(t *testing.T) {
	host := NewTransport()
	entered := make(chan struct{})
	release := make(chan struct{})
	host.Register("p", simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		if msg.Type == "slow" {
			close(entered)
			<-release
		}
		return simnet.Message{Type: "re:" + msg.Type}, nil
	}))
	client := NewTransport()
	defer client.Close()
	client.AddPeer("p", host.Addr("p"))
	ctx := context.Background()
	if _, err := client.Send(ctx, "a", "p", simnet.Message{Type: "warm"}); err != nil {
		t.Fatal(err)
	}

	type result struct {
		resp simnet.Message
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := client.Send(ctx, "a", "p", simnet.Message{Type: "slow"})
		got <- result{resp, err}
	}()
	<-entered
	closeDone := make(chan struct{})
	go func() {
		host.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closeDone
	r := <-got
	if r.err != nil || r.resp.Type != "re:slow" {
		t.Errorf("in-flight send = %+v, %v; want its reply", r.resp, r.err)
	}
}

// TestFailSeversPooledConnections fails a peer another transport holds
// a pooled connection to: the next send is unreachable and never reaches
// the handler.
func TestFailSeversPooledConnections(t *testing.T) {
	host := NewTransport()
	defer host.Close()
	var calls atomic.Int32
	host.Register("victim", simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		calls.Add(1)
		return msg, nil
	}))
	client := NewTransport()
	defer client.Close()
	client.AddPeer("victim", host.Addr("victim"))
	ctx := context.Background()
	if _, err := client.Send(ctx, "a", "victim", simnet.Message{}); err != nil {
		t.Fatal(err)
	}
	host.Fail("victim")
	if _, err := client.Send(ctx, "a", "victim", simnet.Message{}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("send after Fail: err = %v, want ErrUnreachable", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1 (before Fail only)", n)
	}
	if msgs, dropped := client.Stats(); msgs != 2 || dropped != 1 {
		t.Errorf("stats = %d/%d, want 2/1", msgs, dropped)
	}
}

// BenchmarkSendRoundTrip measures one trivial-payload Send between two
// peers on one loopback transport.
func BenchmarkSendRoundTrip(b *testing.B) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("a", echoHandler)
	tr.Register("b", echoHandler)
	ctx := context.Background()
	msg := simnet.Message{Type: "ping"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Send(ctx, "a", "b", msg); err != nil {
			b.Fatal(err)
		}
	}
}
