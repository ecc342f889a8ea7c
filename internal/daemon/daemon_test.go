package daemon_test

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gridvine/internal/daemon"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// countGoroutines samples the goroutine count after letting short-lived
// workers drain.
func countGoroutines(t *testing.T) int {
	t.Helper()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitNoLeak asserts the goroutine count returns to (at most) the
// baseline, polling briefly to absorb scheduler lag.
func waitNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last int
	for time.Now().Before(deadline) {
		last = runtime.NumGoroutine()
		if last <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, last)
}

// startPair boots a two-daemon cluster concurrently (each Start blocks
// on the other's address file).
func startPair(t *testing.T, cfg0, cfg1 daemon.Config) (*daemon.Daemon, *daemon.Daemon) {
	t.Helper()
	var d0, d1 *daemon.Daemon
	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); d0, err0 = daemon.Start(cfg0) }()
	go func() { defer wg.Done(); d1, err1 = daemon.Start(cfg1) }()
	wg.Wait()
	if err0 != nil {
		t.Fatalf("start daemon 0: %v", err0)
	}
	if err1 != nil {
		t.Fatalf("start daemon 1: %v", err1)
	}
	return d0, d1
}

// loadWorker hammers one daemon address with writes and streamed
// queries until stop closes, re-dialling through daemon restarts.
// Every write the daemon acknowledged (receipt, no error) increments
// acked.
func loadWorker(wg *sync.WaitGroup, stop chan struct{}, addr string, id int, acked *atomic.Int64) {
	defer wg.Done()
	var cl *wire.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Load#p"), O: triple.Var("o")}
	for seq := 0; ; seq++ {
		select {
		case <-stop:
			return
		default:
		}
		if cl == nil {
			c, err := wire.Dial(addr)
			if err != nil {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			cl = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rec, err := cl.Write(ctx, wire.Write{Inserts: []triple.Triple{{
			Subject:   fmt.Sprintf("w%d-s%d", id, seq),
			Predicate: "Load#p",
			Object:    fmt.Sprintf("v%d", seq),
		}}})
		if err != nil {
			cancel()
			cl.Close()
			cl = nil
			continue
		}
		if rec.Applied > 0 {
			acked.Add(1)
		}
		if seq%5 == 0 {
			cur, err := cl.Query(ctx, wire.Query{Pattern: &pat, Limit: 32})
			if err == nil {
				for {
					if _, ok := cur.Next(ctx); !ok {
						break
					}
				}
				cur.Close()
			} else {
				cl.Close()
				cl = nil
			}
		}
		cancel()
	}
}

// TestDaemonSigtermCycleUnderLoad cycles one daemon of a live cluster
// through the gridvined signal path — real SIGTERM delivery, drain,
// final snapshot, restart — while clients keep writing and streaming
// against both daemons. After every cycle the restarted daemon's
// recovered store digests must equal the digests captured at shutdown
// (no acknowledged write lost, nothing invented), and once the load
// stops the process must return to its goroutine baseline (nothing
// leaked by the drain/restart machinery). Run with -race.
func TestDaemonSigtermCycleUnderLoad(t *testing.T) {
	// Install the signal handler before sampling the baseline: the
	// runtime's signal-watcher goroutine starts lazily on the first
	// Notify and (by design) never exits.
	sigch := make(chan os.Signal, 1)
	signal.Notify(sigch, syscall.SIGTERM)
	defer signal.Stop(sigch)

	baseline := countGoroutines(t)
	dir := t.TempDir()
	base := daemon.Config{
		Dir:           dir,
		Daemons:       2,
		Peers:         8,
		ReplicaFactor: 2,
		Seed:          42,
		SnapshotEvery: 64,
		PeerWait:      10 * time.Second,
	}
	cfg0, cfg1 := base, base
	cfg0.Index, cfg1.Index = 0, 1
	d0, d1 := startPair(t, cfg0, cfg1)

	stop := make(chan struct{})
	var workers sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go loadWorker(&workers, stop, d0.ClientAddr(), w, &acked)
	}
	// This worker targets the daemon being cycled; address reuse keeps
	// the address valid across restarts, the worker re-dials through
	// the downtime.
	workers.Add(1)
	go loadWorker(&workers, stop, d1.ClientAddr(), 2, &acked)

	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(200 * time.Millisecond) // let traffic build up

		// The gridvined main loop in miniature: deliver a real SIGTERM
		// to this process, then drain on receipt.
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("cycle %d: kill: %v", cycle, err)
		}
		<-sigch
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := d1.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("cycle %d: shutdown: %v", cycle, err)
		}
		final := d1.FinalDigests()
		if len(final) == 0 {
			t.Fatalf("cycle %d: no final digests recorded", cycle)
		}

		restarted, err := daemon.Start(cfg1)
		if err != nil {
			t.Fatalf("cycle %d: restart: %v", cycle, err)
		}
		recovered := restarted.RecoveredDigests()
		if len(recovered) != len(final) {
			t.Fatalf("cycle %d: recovered %d peers, shut down with %d", cycle, len(recovered), len(final))
		}
		for id, want := range final {
			if got := recovered[id]; got != want {
				t.Errorf("cycle %d: %s: recovered digest %#x, shutdown digest %#x — acked state lost or invented",
					cycle, id, got, want)
			}
		}
		d1 = restarted
	}

	close(stop)
	workers.Wait()
	if err := d0.Shutdown(context.Background()); err != nil {
		t.Fatalf("final shutdown daemon 0: %v", err)
	}
	if err := d1.Shutdown(context.Background()); err != nil {
		t.Fatalf("final shutdown daemon 1: %v", err)
	}
	if acked.Load() == 0 {
		t.Fatal("load generated no acknowledged writes — test exercised nothing")
	}
	waitNoLeak(t, baseline)
}

// TestDaemonColdStartServesAndDumps pins the basic single-daemon
// lifecycle: cold start, wire round-trip, digest-visible dump, clean
// shutdown with final digests.
func TestDaemonColdStartServesAndDumps(t *testing.T) {
	d, err := daemon.Start(daemon.Config{
		Dir:     t.TempDir(),
		Peers:   4,
		Seed:    7,
		Daemons: 1,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if got := len(d.PeerIDs()); got != 4 {
		t.Fatalf("single daemon should host all 4 peers, hosts %d", got)
	}
	cl, err := wire.Dial(d.ClientAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	ctx := context.Background()
	rec, err := cl.Write(ctx, wire.Write{Inserts: []triple.Triple{
		{Subject: "s1", Predicate: "Bench#p", Object: "o1"},
		{Subject: "s2", Predicate: "Bench#p", Object: "o2"},
	}})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if rec.Applied != 2 {
		t.Fatalf("applied %d of 2", rec.Applied)
	}
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Bench#p"), O: triple.Var("o")}
	cur, err := cl.Query(ctx, wire.Query{Pattern: &pat})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	rows := 0
	for {
		if _, ok := cur.Next(ctx); !ok {
			break
		}
		rows++
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	if rows != 2 {
		t.Fatalf("queried %d rows, want 2", rows)
	}
	dump, err := cl.Dump(ctx, "")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if len(dump.Peers) != 4 {
		t.Fatalf("dump covers %d peers, want 4", len(dump.Peers))
	}
	// The journals' snapshot counters reach DaemonStats: the write is
	// in the WAL, and two records are far below the snapshot trigger.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.WALBytes == 0 || st.Snapshots != 0 {
		t.Fatalf("stats report %d WAL bytes and %d snapshots after one small write", st.WALBytes, st.Snapshots)
	}
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(d.FinalDigests()) != 4 {
		t.Fatalf("final digests cover %d peers, want 4", len(d.FinalDigests()))
	}
}
