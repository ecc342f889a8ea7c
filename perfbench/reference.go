package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// fillReference answers every reformulate and mixed check on an
// in-process simnet overlay built from the same data seed and preload as the
// cluster, and stores the expected rows and recall in the checks. Mixed
// queries run there on the BFS engine, not the composite engine the
// cluster uses, so composite answers are checked against the oracle.
// The reference is garbage once this returns.
func fillReference(d *dataset, wl *workload) error {
	if wl.name == "ingest" {
		return nil // read-back answers are known from the writes
	}
	ov, err := pgrid.Build(simnet.NewNetwork(), pgrid.BuildOptions{
		Peers:         numPeers,
		ReplicaFactor: replicaFactor,
		Rng:           rand.New(rand.NewSource(dataSeed)),
	})
	if err != nil {
		return fmt.Errorf("reference overlay: %w", err)
	}
	peer := mediation.NewPeer(ov.Nodes()[0])
	for _, n := range ov.Nodes()[1:] {
		mediation.NewPeer(n)
	}
	ctx := context.Background()
	var b mediation.Batch
	for _, s := range d.schemas {
		b.PublishSchema(s)
	}
	for _, m := range d.mappings {
		b.PublishMapping(m)
	}
	for _, t := range d.preload {
		b.InsertTriple(t)
	}
	rec, err := peer.Write(ctx, &b)
	if err != nil {
		return fmt.Errorf("reference preload: %w", err)
	}
	if rec.Failed != 0 {
		return fmt.Errorf("reference preload: %d entries failed", rec.Failed)
	}
	for i := range wl.checks {
		ck := &wl.checks[i]
		req := mediation.Request{Pattern: ck.pattern, RDQL: ck.rdqlText, Reformulate: ck.reformulate}
		cur, err := peer.Query(ctx, req)
		if err != nil {
			return fmt.Errorf("reference query %d: %w", i, err)
		}
		var rows []string
		var found []triple.Triple
		for {
			row, ok := cur.Next(ctx)
			if !ok {
				break
			}
			rows = append(rows, rowKey(row.Values))
			if row.Result != nil {
				found = append(found, row.Result.Triple)
			}
		}
		if err := cur.Close(); err != nil {
			return fmt.Errorf("reference query %d: %w", i, err)
		}
		sort.Strings(rows)
		ck.want = rows
		if wl.name == "reformulate" {
			ck.refRecall = wl.queries[i].Recall(found)
		} else {
			ck.refRecall = ck.recall(rows)
		}
	}
	return nil
}
