package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/schema"
	"gridvine/internal/wire"
)

// opTimeout bounds one client request; a request past it counts as
// failed.
const opTimeout = 30 * time.Second

// opResult is what one client request returned.
type opResult struct {
	kind    opKind
	check   int
	lat     time.Duration
	done    time.Duration // completion, since the start of the phase
	err     error
	stats   wire.Stats // queries: the trailer
	receipt wire.Receipt
	written int      // writes: triples inserted
	rows    []string // queries: sorted answer rows
}

var kindName = map[opKind]string{opQuery: "query", opRDQL: "rdql", opWrite: "write", opReplace: "replace"}

// runOps drives one closed-loop client per connection through its op
// sequence, connection c talking to daemon c, and returns the results in
// sequence order together with the wall time of the whole phase.
func runOps(addrs []string, seqs [numConns][]op, wl *workload, rec *recorder, opIDs *atomic.Uint64) ([numConns][]opResult, time.Duration, error) {
	var out [numConns][]opResult
	clients := make([]*wire.Client, numConns)
	for c := range clients {
		cl, err := wire.Dial(addrs[c])
		if err != nil {
			for _, o := range clients[:c] {
				o.Close()
			}
			return out, 0, fmt.Errorf("dial daemon %d: %w", c, err)
		}
		clients[c] = cl
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	var wg sync.WaitGroup
	slots := newBarrier(numConns)
	start := time.Now()
	for c := 0; c < numConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = make([]opResult, 0, len(seqs[c]))
			for _, o := range seqs[c] {
				exclusive := o.kind == opPause || o.kind == opReplace
				if exclusive {
					slots.wait() // every connection is idle
				}
				if o.kind == opPause {
					slots.wait() // the slot's replace is done
					continue
				}
				t0 := time.Now()
				r := doOp(clients[c], o, wl)
				t1 := time.Now()
				r.lat = t1.Sub(t0)
				r.done = t1.Sub(start)
				rec.record(0, spanOp, kindName[o.kind], opIDs.Add(1), 0, t0, t1, 0)
				out[c] = append(out[c], r)
				if exclusive {
					slots.wait()
				}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start), nil
}

// barrier is a reusable rendezvous of n goroutines. Every connection's
// sequence has its exclusive slots at the same positions, so each wait
// is reached by all of them.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

func doOp(cl *wire.Client, o op, wl *workload) opResult {
	r := opResult{kind: o.kind, check: o.check}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	switch o.kind {
	case opQuery, opRDQL:
		ck := &wl.checks[o.check]
		q := wire.Query{Peer: o.peer, Pattern: ck.pattern, RDQL: ck.rdqlText, Reformulate: ck.reformulate}
		if o.kind == opRDQL {
			q.Options = mediation.SearchOptions{ComposeMappings: true}
		}
		cur, err := cl.Query(ctx, q)
		if err != nil {
			r.err = err
			return r
		}
		for {
			row, ok := cur.Next(ctx)
			if !ok {
				break
			}
			r.rows = append(r.rows, rowKey(row))
		}
		if err := cur.Close(); err != nil {
			r.err = err
		} else if err := ctx.Err(); err != nil {
			r.err = err
		}
		r.stats = cur.Stats()
		sort.Strings(r.rows)
	case opWrite, opReplace:
		w := wire.Write{Peer: o.peer, Inserts: o.inserts}
		if o.kind == opReplace {
			w.ReplaceOld = []schema.Mapping{o.oldMap}
			w.ReplaceNew = []schema.Mapping{o.newMap}
		}
		rc, err := cl.Write(ctx, w)
		if rc != nil {
			r.receipt = *rc
		}
		switch {
		case err != nil:
			r.err = err
		case rc.Failed != 0 || rc.Skipped != 0:
			r.err = fmt.Errorf("write: %d failed, %d skipped: %v", rc.Failed, rc.Skipped, rc.EntryErrs)
		default:
			r.written = len(o.inserts)
		}
	}
	return r
}

// verify checks every answered query against its expected rows and
// returns the number of wrong answers with a description of the first.
func verify(results [numConns][]opResult, wl *workload) (int, string) {
	wrong, first := 0, ""
	for c := range results {
		for i, r := range results[c] {
			if r.err != nil || (r.kind != opQuery && r.kind != opRDQL) {
				continue
			}
			want := wl.checks[r.check].want
			if !equalRows(r.rows, want) {
				wrong++
				if first == "" {
					first = fmt.Sprintf("conn %d op %d (check %d): got %d rows, want %d", c, i, r.check, len(r.rows), len(want))
				}
			}
		}
	}
	return wrong, first
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
