package gridvine

// Benchmark harness: one benchmark per experiment of DESIGN.md §3 (each
// regenerates a quantitative claim of the paper and reports its headline
// numbers as custom metrics), plus micro-benchmarks of the core operations.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute one full run per iteration; the heavy
// ones (deployment) take tens of seconds per run, so -benchtime=1x is the
// sensible setting for them.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gridvine/internal/experiments"
)

// BenchmarkDeploymentLatency reproduces EXP-A (paper §2.3): 340 peers,
// ≈17000 triples, 23000 triple-pattern queries under the WAN mixture model.
// Paper: 40% answered <1s, 75% <5s.
func BenchmarkDeploymentLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDeployment(experiments.DeploymentConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Within1s, "frac<1s")
		b.ReportMetric(r.Within5s, "frac<5s")
		b.ReportMetric(r.MeanHops, "hops/query")
		b.ReportMetric(float64(r.Triples), "triples")
	}
}

// BenchmarkRoutingCost reproduces EXP-B (paper §2.1): Retrieve in O(log |Π|)
// messages on balanced and skewed tries, 64…4096 peers.
func BenchmarkRoutingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunRouting(experiments.RoutingConfig{Skewed: true, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.MeanHops, "hops@4096")
		b.ReportMetric(last.MeanPerLog, "hops/log2N")
	}
}

// BenchmarkConnectivityIndicator reproduces EXP-C (paper §3.1): the ci
// indicator's zero crossing tracks the emergence of the giant component
// over 50 schemas.
func BenchmarkConnectivityIndicator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunConnectivity(experiments.ConnectivityConfig{Seed: 3})
		b.ReportMetric(float64(r.CrossoverMappings()), "crossover-mappings")
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.MeanWCCFrac, "final-WCC-frac")
	}
}

// BenchmarkRecallGrowth reproduces EXP-D (paper §4): recall grows as the
// self-organization loop creates mappings.
func BenchmarkRecallGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunRecall(experiments.RecallConfig{Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		first := r.Points[0]
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(first.MeanRecall, "recall-initial")
		b.ReportMetric(last.MeanRecall, "recall-final")
		b.ReportMetric(float64(last.ActiveMappings), "mappings-final")
	}
}

// BenchmarkDeprecation reproduces EXP-E (paper §3.2): precision/recall of
// the Bayesian deprecation of planted erroneous mappings.
func BenchmarkDeprecation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunDeprecation(experiments.DeprecationConfig{Seed: 5})
		var prec, rec float64
		for _, p := range r.Points {
			prec += p.Precision
			rec += p.Recall
		}
		n := float64(len(r.Points))
		b.ReportMetric(prec/n, "precision")
		b.ReportMetric(rec/n, "recall")
	}
}

// BenchmarkIndexingAblation reproduces EXP-G (paper §2.2 design): recall of
// predicate/object-constrained queries with and without the 3× indexing.
func BenchmarkIndexingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunIndexing(experiments.IndexingConfig{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Constraint == "predicate" {
				b.ReportMetric(p.FullIndexing, "pred-full")
				b.ReportMetric(p.SubjectOnly, "pred-subjonly")
			}
		}
	}
}

// BenchmarkChurnAvailability reproduces EXP-H (paper §2.1 design):
// availability under churn per replica factor.
func BenchmarkChurnAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunChurn(experiments.ChurnConfig{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.FailureRate == 0.3 {
				b.ReportMetric(p.Availability, fmt.Sprintf("avail-rf%d@30%%", p.ReplicaFactor))
			}
		}
	}
}

// BenchmarkReformulationStrategies reproduces EXP-I (paper §4 design):
// iterative vs recursive reformulation message costs.
func BenchmarkReformulationStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunStrategies(experiments.StrategiesConfig{Seed: 8})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(float64(last.IterMessages), "iter-msgs@6")
		b.ReportMetric(float64(last.RecIssuerMsgs), "rec-issuer-msgs@6")
	}
}

// BenchmarkConjunctivePlanner reproduces EXP-K: the conjunctive query
// planner (selectivity ordering, bound-value pushdown, hash joins) against
// the naive left-to-right evaluator on a skewed selective-join workload
// over the simnet with WAN transit and bandwidth delays. The headline
// metrics are the overlay-message ratio (routing + transfer chunks) and the
// wall-clock speedup; paper-scale figures live in BENCH_conjunctive.json.
func BenchmarkConjunctivePlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunConjunctive(experiments.ConjunctiveConfig{
			Seed:        9,
			Peers:       32,
			HotEntities: 1500,
			RareMatches: 4,
			Queries:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Match {
			b.Fatal("planned execution diverged from the naive evaluator")
		}
		b.ReportMetric(r.MessageRatio, "msg-ratio")
		b.ReportMetric(r.Speedup, "speedup")
		b.ReportMetric(r.PlannedMessages, "planned-msgs/query")
		b.ReportMetric(r.NaiveMessages, "naive-msgs/query")
	}
}

// BenchmarkStreaming reproduces EXP-M: the streaming query API's
// time-to-first-row against the full traversal wall-clock on a
// reformulation chain under WAN delays, and the routed-lookup cut a
// Limit-bounded top-k achieves over the unbounded run. Paper-scale figures
// live in BENCH_streaming.json.
func BenchmarkStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunStreaming(experiments.StreamingConfig{
			Seed:              10,
			Peers:             32,
			ChainSchemas:      6,
			EntitiesPerSchema: 20,
			HotEntities:       100,
			Queries:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Match {
			b.Fatal("streamed result diverged from the blocking aggregate")
		}
		b.ReportMetric(r.FirstRowMs, "first-row-ms")
		b.ReportMetric(r.FullWallMs, "full-wall-ms")
		b.ReportMetric(r.FirstRowSpeedup, "first-row-speedup")
		b.ReportMetric(r.LookupReduction, "topk-lookup-cut")
	}
}

// BenchmarkBulkLoad reproduces EXP-N: batched key-grouped ingest
// (Peer.Write) against the per-triple Update(t) loop, on routed messages
// and WAN-modeled wall-clock. Paper-scale figures live in
// BENCH_bulkload.json.
func BenchmarkBulkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBulkLoad(experiments.BulkLoadConfig{
			Seed:        11,
			Peers:       48,
			Schemas:     12,
			Entities:    60,
			WallTriples: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.BatchedMatchesSerial {
			b.Fatal("batched ingest diverged from the per-triple loop")
		}
		b.ReportMetric(r.MessageReduction, "msg-reduction")
		b.ReportMetric(float64(r.Groups), "groups")
		b.ReportMetric(r.WallSpeedup, "wan-wall-speedup")
	}
}

// BenchmarkChurn reproduces EXP-O: sustained crash/restart churn under a
// mixed write/delete/query load, comparing digest anti-entropy repair
// against the full-store sync baseline. Paper-scale figures live in
// BENCH_churn.json.
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunChurnStress(experiments.ChurnStressConfig{Seed: 12})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Converged {
			b.Fatal("replica groups did not converge after heal")
		}
		if r.Resurrected != 0 {
			b.Fatalf("resurrected deletes = %d", r.Resurrected)
		}
		b.ReportMetric(r.Recall, "recall")
		b.ReportMetric(float64(r.ConvergenceRounds), "converge-rounds")
		b.ReportMetric(float64(r.DigestRepairBytes), "digest-repair-B")
		b.ReportMetric(float64(r.FullRepairBytes), "full-repair-B")
		b.ReportMetric(r.ByteReduction, "byte-reduction")
	}
}

// BenchmarkDurability reproduces EXP-P: a WAL+snapshot-backed peer
// crashes with a torn log tail, recovers from disk, and rejoins via
// anti-entropy — measured against a cold restart that re-syncs its whole
// store over the network. Paper-scale figures live in
// BENCH_durability.json.
func BenchmarkDurability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDurability(experiments.DurabilityConfig{Seed: 12})
		if err != nil {
			b.Fatal(err)
		}
		if !r.RecoveredMatchesReference {
			b.Fatal("recovered store diverged from the pre-crash reference")
		}
		if !r.CorruptTailTruncated {
			b.Fatal("corrupt WAL tail was not truncated")
		}
		if !r.RestartConverged || !r.ColdConverged {
			b.Fatal("rejoin repair did not converge")
		}
		if r.RestartRepairBytes >= r.ColdResyncBytes {
			b.Fatalf("restart repair %d bytes not below cold re-sync %d", r.RestartRepairBytes, r.ColdResyncBytes)
		}
		b.ReportMetric(r.RecoveryMillis, "recovery-ms")
		b.ReportMetric(float64(r.RestartRepairBytes), "restart-repair-B")
		b.ReportMetric(float64(r.ColdResyncBytes), "cold-resync-B")
		b.ReportMetric(r.RepairReduction, "repair-reduction")
	}
}

// --- Micro-benchmarks of the public API ---------------------------------

func benchNetwork(b *testing.B, peers int) *Network {
	b.Helper()
	net, err := NewNetwork(Options{Peers: peers, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	return net
}

// BenchmarkInsertTriple measures one mediation-layer insertion (three
// routed overlay updates plus replication).
func BenchmarkInsertTriple(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Triple{
			Subject:   fmt.Sprintf("acc:S%06d", i),
			Predicate: "EMBL#Organism",
			Object:    fmt.Sprintf("Species %d", i),
		}
		if _, err := p.InsertTripleContext(context.Background(), t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFor measures one routed triple-pattern query.
func BenchmarkSearchFor(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	for i := 0; i < 500; i++ {
		p.InsertTripleContext(context.Background(), Triple{
			Subject:   fmt.Sprintf("acc:Q%04d", i),
			Predicate: "EMBL#Organism",
			Object:    fmt.Sprintf("Species %d", i%20),
		})
	}
	q := Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Const("Species 7")}
	issuer := net.Peer(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blockingSearchFor(issuer, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWithReformulation measures a reformulated pattern query
// (Query drained by CollectPattern) traversing a 3-mapping chain, at the
// default fan-out width and serially.
func BenchmarkSearchWithReformulation(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("S%d", i)
		p.InsertTripleContext(context.Background(), Triple{Subject: name + "-x", Predicate: name + "#org", Object: "aspergillus"})
		if i < 3 {
			p.InsertMappingContext(context.Background(), NewManualMapping(name, fmt.Sprintf("S%d", i+1), map[string]string{"org": "org"}))
		}
	}
	q := Pattern{S: Var("x"), P: Const("S0#org"), O: Const("aspergillus")}
	issuer := net.Peer(20)
	for name, width := range map[string]int{"default": 0, "serial": 1} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blockingSearchReformulated(issuer, q, SearchOptions{Parallelism: width}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkConstruction measures static overlay construction.
func BenchmarkNetworkConstruction(b *testing.B) {
	for _, peers := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(Options{Peers: peers, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				net.Close()
			}
		})
	}
}

// BenchmarkBootstrapConstruction measures the self-organizing pairwise
// exchange construction.
func BenchmarkBootstrapConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(Options{Peers: 64, Seed: int64(i), SelfOrganizingOverlay: true})
		if err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}

var sinkBindings []Bindings

// BenchmarkConjunctiveQuery measures a two-pattern join.
func BenchmarkConjunctiveQuery(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		subj := fmt.Sprintf("acc:J%04d", i)
		p.InsertTripleContext(context.Background(), Triple{Subject: subj, Predicate: "A#org", Object: fmt.Sprintf("species-%d", rng.Intn(10))})
		p.InsertTripleContext(context.Background(), Triple{Subject: subj, Predicate: "A#len", Object: fmt.Sprint(100 + i)})
	}
	patterns := []Pattern{
		{S: Var("x"), P: Const("A#org"), O: Const("species-3")},
		{S: Var("x"), P: Const("A#len"), O: Var("len")},
	}
	issuer := net.Peer(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := blockingConjunctive(issuer, patterns, false, SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sinkBindings = out
	}
}

// BenchmarkComposite reproduces EXP-R: composite-mapping reformulation
// (precomposed, quality-pruned closures) against the BFS engine on
// deepening mapping chains. Headline metrics are the routed-message
// reduction at the deepest chain and the steady-state composite cost;
// paper-scale figures live in BENCH_compose.json.
func BenchmarkComposite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCompose(experiments.ComposeConfig{
			Seed:    10,
			Depths:  []int{4},
			Queries: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := r.Points[0]
		if !p.CompositeMatchesBFS {
			b.Fatal("composite reformulation diverged from the BFS oracle")
		}
		if !p.InvalidationConsistent {
			b.Fatal("stale composite served after a mapping replace")
		}
		b.ReportMetric(p.MessageReduction, "msg-cut@4")
		b.ReportMetric(p.CompositeMsgsPerQuery, "comp-msgs/query")
		b.ReportMetric(p.BFSMsgsPerQuery, "bfs-msgs/query")
	}
}
