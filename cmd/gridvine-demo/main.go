// Command gridvine-demo replays the paper's demonstration scenario (§4):
// bioinformatic data under 50 heterogeneous schemas is shared in a network
// of peers together with a handful of manually created mappings; the
// connectivity of the mediation layer is monitored round after round while
// the system automatically creates mappings (from shared references,
// lexical and set-distance alignment), assesses them with the Bayesian
// cycle analysis, and deprecates the erroneous ones — and query recall
// grows as interoperability emerges.
//
// Usage:
//
//	gridvine-demo                 # paper-scale: 50 schemas
//	gridvine-demo -schemas 12 -rounds 5 -peers 48   # smaller run
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"gridvine"
	"gridvine/internal/bioworkload"
	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
)

func main() {
	peers := flag.Int("peers", 128, "number of peers")
	schemas := flag.Int("schemas", 50, "number of schemas (paper: 50)")
	entities := flag.Int("entities", 200, "number of shared entities")
	seedMappings := flag.Int("seed-mappings", 4, "manually created mappings inserted up front")
	rounds := flag.Int("rounds", 10, "self-organization rounds")
	queries := flag.Int("queries", 40, "queries per recall measurement")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(*seed))

	fmt.Printf("generating bioinformatic workload: %d schemas, %d entities…\n", *schemas, *entities)
	w := bioworkload.Generate(bioworkload.Config{
		Schemas:  *schemas,
		Entities: *entities,
		Seed:     *seed + 1,
	})
	fmt.Printf("  %d triples across %d schemas (domain %q)\n", len(w.Triples()), len(w.Schemas), w.Domain)

	net, err := gridvine.NewNetwork(gridvine.Options{Peers: *peers, Seed: *seed})
	if err != nil {
		fail("building network", err)
	}
	defer net.Close()

	fmt.Printf("inserting data into %d peers…\n", net.NumPeers())
	for _, t := range w.Triples() {
		if _, err := net.RandomPeer().InsertTripleContext(ctx, t); err != nil {
			fail("inserting triple", err)
		}
	}

	org, err := net.NewOrganizer(net.Peer(0), gridvine.OrganizerOptions{
		Domain:              w.Domain,
		MaxMappingsPerRound: 6,
		Seed:                *seed + 2,
	})
	if err != nil {
		fail("creating organizer", err)
	}
	for _, info := range w.Schemas {
		if err := org.RegisterSchema(ctx, info.Schema); err != nil {
			fail("registering schema", err)
		}
	}
	for _, m := range w.SeedMappings(*seedMappings) {
		if _, err := net.Peer(0).InsertMappingContext(ctx, m); err != nil {
			fail("inserting seed mapping", err)
		}
	}
	ms, err := org.GatherMappings(ctx)
	if err != nil {
		fail("gathering mappings", err)
	}
	if err := org.RefreshDegrees(ctx, ms); err != nil {
		fail("refreshing degrees", err)
	}
	fmt.Printf("registered %d schemas, inserted %d manual seed mappings\n\n", len(w.Schemas), *seedMappings)

	qs := w.Queries(*queries, rng)
	subjects := w.Subjects()

	table := metrics.NewTable("round", "ci", "active", "deprecated", "created", "recall")
	recallNow := func() float64 {
		sum := 0.0
		for _, q := range qs {
			rs, err := searchReformulated(ctx, net.RandomPeer(), q.Pattern)
			if err != nil {
				continue
			}
			sum += q.Recall(rs.Triples())
		}
		return sum / float64(len(qs))
	}

	report, err := org.Connectivity(ctx)
	if err != nil {
		fail("connectivity", err)
	}
	table.AddRow("0", fmt.Sprintf("%+.2f", report.CI), fmt.Sprint(len(ms.Active())), "0", "-", fmt.Sprintf("%.2f", recallNow()))

	for round := 1; round <= *rounds; round++ {
		r, err := org.Round(ctx, subjects)
		if err != nil {
			fail("round", err)
		}
		ms, err := org.GatherMappings(ctx)
		if err != nil {
			fail("gathering mappings", err)
		}
		table.AddRow(
			fmt.Sprint(round),
			fmt.Sprintf("%+.2f", r.CIAfter),
			fmt.Sprint(len(ms.Active())),
			fmt.Sprint(ms.Len()-len(ms.Active())),
			fmt.Sprint(len(r.Created)),
			fmt.Sprintf("%.2f", recallNow()),
		)
	}
	fmt.Println("self-organization progress (paper §4: recall grows as mappings are created):")
	fmt.Print(table.String())

	// Close with the Figure 2 walk-through on the generated schemas.
	fmt.Println("\nFigure 2 walk-through: querying one schema's organism attribute,")
	fmt.Println("aggregating results from semantically related schemas:")
	info := w.Schemas[0]
	attr, ok := info.ConceptAttr["organism"]
	if !ok {
		return
	}
	q := gridvine.Pattern{
		S: gridvine.Var("x"),
		P: gridvine.Const(info.Schema.PredicateURI(attr)),
		O: gridvine.Like("%Aspergillus%"),
	}
	rs, err := searchReformulated(ctx, net.RandomPeer(), q)
	if err != nil {
		fail("figure-2 query", err)
	}
	bySchema := map[string]int{}
	for _, r := range rs.Results {
		if name, _, ok := splitSchema(r.Triple.Predicate); ok {
			bySchema[name]++
		}
	}
	fmt.Printf("  query %v\n  → %d results from %d schemas after %d reformulations\n",
		q, len(rs.Results), len(bySchema), rs.Reformulations)
}

// searchReformulated runs one reformulating pattern query through the
// streaming entry point and drains it into the whole-answer aggregate.
func searchReformulated(ctx context.Context, p *gridvine.Peer, q gridvine.Pattern) (*gridvine.ResultSet, error) {
	cur, err := p.Query(ctx, mediation.Request{Pattern: &q, Reformulate: true})
	if err != nil {
		return nil, err
	}
	return gridvine.CollectPattern(ctx, cur)
}

func splitSchema(uri string) (string, string, bool) {
	for i := len(uri) - 1; i >= 0; i-- {
		if uri[i] == '#' {
			return uri[:i], uri[i+1:], true
		}
	}
	return "", "", false
}

func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	os.Exit(1)
}
