package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridvine/internal/simnet"
	"gridvine/internal/store"
)

// tiny is a run small enough for a unit test: two rounds of half a
// second of nominal work each.
func tiny(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, rounds: 2, workdir: t.TempDir()}
}

// executeTiny runs a tiny workload and shuts its cluster down.
func executeTiny(t *testing.T, cfg config) *execution {
	t.Helper()
	ex, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if err := ex.cl.close(); err != nil {
		t.Fatalf("%s: cluster shutdown: %v", cfg.workload, err)
	}
	return ex
}

// TestWorkloadsPassGates runs every workload end to end and requires
// every correctness gate to pass, no op to fail, and every end-to-end
// metric to be reported.
func TestWorkloadsPassGates(t *testing.T) {
	for _, w := range []string{"reformulate", "ingest", "mixed"} {
		t.Run(w, func(t *testing.T) {
			res, err := run(tiny(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.correct, res.attempted, res.failed, res.notes)
			}
			for _, name := range []string{"setup_s", "ops_per_s", "query_p50_ms", "query_p99_ms", "write_p50_ms",
				"write_p99_ms", "recall", "restart_s", "heap_bytes_per_triple"} {
				if m, ok := res.metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v (present %v), want > 0", name, m, ok)
				}
			}
		})
	}
}

// TestGatesCatchTampering shows the gates fail a run whose reference
// answer, reference recall or recovered digest was tampered with.
func TestGatesCatchTampering(t *testing.T) {
	for _, w := range []string{"reformulate", "mixed"} {
		t.Run(w, func(t *testing.T) {
			ex := executeTiny(t, tiny(t, w, false))
			if g := gates(ex.wl, ex.rounds); len(g) != 0 {
				t.Fatalf("untampered run fails gates: %v", g)
			}
			asked := -1
			for _, r := range ex.rounds[0].results[0] {
				if r.kind == opQuery || r.kind == opRDQL {
					asked = r.check
					break
				}
			}
			if asked < 0 {
				t.Fatal("no query in the first round")
			}

			ck := &ex.wl.checks[asked]
			want := ck.want
			ck.want = append(append([]string(nil), want...), "tampered")
			if g := gates(ex.wl, ex.rounds); !containsGate(g, "differ from the reference") {
				t.Errorf("tampered answer passed the gates: %v", g)
			}
			ck.want = want

			ck.refRecall += 0.5
			if g := gates(ex.wl, ex.rounds); !containsGate(g, "reference recall") {
				t.Errorf("tampered recall passed the gates: %v", g)
			}
			ck.refRecall -= 0.5

			rs := &ex.rounds[1].restarts[0]
			for id := range rs.recovered {
				rs.recovered[id]++
				break
			}
			if g := gates(ex.wl, ex.rounds); !containsGate(g, "recovered digests") {
				t.Errorf("tampered digest passed the gates: %v", g)
			}
		})
	}
}

func containsGate(gates []string, sub string) bool {
	for _, g := range gates {
		if strings.Contains(g, sub) {
			return true
		}
	}
	return false
}

// TestTracedRunIsPassThrough runs the same workload on the untraced
// (daemon.Start) and the traced (wrapped constructors) cluster: every
// answer and the restarted daemon's digests must be identical.
func TestTracedRunIsPassThrough(t *testing.T) {
	plain := executeTiny(t, tiny(t, "reformulate", false))
	traced := executeTiny(t, tiny(t, "reformulate", true))
	for c := range plain.rounds[0].results {
		a, b := plain.rounds[0].results[c], traced.rounds[0].results[c]
		if len(a) != len(b) {
			t.Fatalf("conn %d: %d vs %d ops", c, len(a), len(b))
		}
		for i := range a {
			if a[i].err != nil || b[i].err != nil || !equalRows(a[i].rows, b[i].rows) {
				t.Fatalf("conn %d op %d: untraced %v (err %v), traced %v (err %v)", c, i, a[i].rows, a[i].err, b[i].rows, b[i].err)
			}
		}
	}
	for i := range plain.rounds {
		if p, q := plain.rounds[i].restarts[0].final, traced.rounds[i].restarts[0].final; !digestsEqual(p, q) {
			t.Fatalf("round %d: final digests differ: untraced %v, traced %v", i, p, q)
		}
	}
	if len(traced.rec.durations("ops", spanSend, "*")) == 0 || len(traced.rec.durations("ops", spanFsync, "wal")) == 0 {
		t.Fatal("traced run recorded no transport or fsync spans")
	}
}

// TestWrappersForward checks the timing wrappers hand requests, replies
// and file contents through unchanged.
func TestWrappersForward(t *testing.T) {
	rec := newRecorder()
	net := simnet.NewNetwork()
	stage := &tracedRegistrar{send: net.Send, rec: rec, handlers: map[simnet.PeerID]simnet.Handler{}}
	stage.Register("b", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "reply", Payload: string(from) + ":" + msg.Payload.(string)}, nil
	}))
	net.Register("b", stage.handlers["b"])
	resp, err := stage.Send(context.Background(), "a", "b", simnet.Message{Type: "req", Payload: "x"})
	if err != nil || resp.Type != "reply" || resp.Payload != "a:x" {
		t.Fatalf("Send through wrappers = %+v, %v", resp, err)
	}
	if len(rec.durations("setup", spanSend, "req")) != 1 || len(rec.durations("setup", spanHandle, "req")) != 1 {
		t.Fatal("send or handle span missing")
	}

	dir := t.TempDir()
	fsys := newTracedFS(rec)
	l, _, err := store.Open(fsys, dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSnapshotSource(func() (items, tombs []store.Entry) {
		return []store.Entry{{Op: store.OpInsert, Key: "01", Value: "v"}}, nil
	})
	if err := l.Append([]store.Entry{{Op: store.OpInsert, Key: "01", Value: "v"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]store.Entry{{Op: store.OpInsert, Key: "10", Value: "w"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recov, err := store.Open(store.OsFS{}, dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recov.SnapshotItems) != 1 || len(recov.WAL) != 1 || recov.WAL[0].Key != "10" {
		t.Fatalf("recovered through OsFS: %+v", recov)
	}
	var snapID uint64
	for _, sp := range rec.spans {
		if sp.Name == spanSnapshot {
			snapID = sp.ID
		}
	}
	parented := false
	for _, sp := range rec.spans {
		parented = parented || (sp.Name == spanFsync && sp.Attr == "snapshot" && sp.Parent == snapID && snapID != 0)
	}
	if !parented {
		t.Fatalf("no snapshot span with its temp file's fsync as child: %+v", rec.spans)
	}
	if rec.bytes("setup", spanFsync, "wal") == 0 {
		t.Fatal("no WAL bytes counted")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.tmp")); !os.IsNotExist(err) {
		t.Fatalf("snapshot temp file left behind: %v", err)
	}
}
