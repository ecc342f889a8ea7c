package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gridvine/internal/bioworkload"
	"gridvine/internal/rdql"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Cluster shape and data sizes shared by every workload. They are the
// paper-scale demonstration set (50 schemas, 200 entities, a 49-mapping
// manual chain) on a 4-daemon / 16-peer / replica-2 deployment.
const (
	numDaemons    = 4
	numPeers      = 16
	replicaFactor = 2
	numConns      = 2 // closed-loop clients: one per core of a 2-vCPU machine
	numSchemas    = 50
	numEntities   = 200
	numMappings   = 49
	preloadBatch  = 64 // triples per preload write
	ingestBatch   = 64 // triples per ingest write
	queryPool     = 256
	// crossShare sizes the cross phase of the single-type workloads (the
	// op type their measured phase lacks) relative to --seconds.
	crossShare   = 0.5
	replaceEvery = 20  // every 20th mixed op is a mapping replace
	mixedWriteP  = 0.4 // share of the other mixed ops that are record writes
	// dataSeed fixes the data set, the query pools and the overlay, so
	// that runs differ only in their op sequences (--seed): the spread
	// between runs is then the machine's and the program's, not that of
	// differently shaped data sets.
	dataSeed = 1
)

// Nominal op rates (ops/s over both connections), measured on a 2-vCPU
// x86 VM. They size each connection's fixed-length op sequence to about
// --seconds of work there; the sequence length, not a timer, ends a
// phase, so the final state does not depend on throughput.
var nominalRate = map[string]float64{
	"reformulate": 330,
	"ingest":      70,
	"mixed":       200,
	// cross phases
	"reformulate/cross": 140,  // single-record writes
	"ingest/cross":      1000, // point read-backs
}

type opKind int

const (
	opQuery   opKind = iota // single-pattern query (reformulated or point lookup)
	opRDQL                  // two-pattern RDQL query with composite reformulation
	opWrite                 // insert batch
	opReplace               // answer-preserving mapping replace
	opPause                 // waits while another connection's replace runs alone
)

// op is one client request of a connection's sequence.
type op struct {
	kind opKind
	peer string // issuing peer, hosted by the connection's daemon
	// opQuery / opRDQL: index into the workload's check table.
	check int
	// opWrite: the triples inserted.
	inserts []triple.Triple
	// opReplace: mapping old → updated.
	oldMap, newMap schema.Mapping
}

// check is the expected answer of one distinct query text.
type check struct {
	pattern     *triple.Pattern // opQuery
	reformulate bool
	rdqlText    string // opRDQL
	// want is the sorted multiset of answer rows, filled from the
	// in-process reference (or, for ingest read-backs, from the write).
	want []string
	// refRecall is the reference's recall for this query.
	refRecall float64
	// recall computes the recall of a sorted answer-row multiset.
	recall func(rows []string) float64
}

// dataset is the preloaded data plus the run's op seed.
type dataset struct {
	seed     int64 // op sequence seed (--seed)
	w        *bioworkload.Workload
	schemas  []schema.Schema
	mappings []schema.Mapping
	preload  []triple.Triple
}

func newDataset(seed int64) *dataset {
	w := bioworkload.Generate(bioworkload.Config{Schemas: numSchemas, Entities: numEntities, Seed: dataSeed})
	d := &dataset{seed: seed, w: w, mappings: w.SeedMappings(numMappings), preload: w.Triples()}
	for _, s := range w.Schemas {
		d.schemas = append(d.schemas, s.Schema)
	}
	return d
}

// peerName is the overlay ID of peer i (pgrid.Build's naming).
func peerName(i int) string { return fmt.Sprintf("peer-%03d", i) }

// hostedPeer picks one of the peers daemon d hosts (i % numDaemons == d).
func hostedPeer(d int, rng *rand.Rand) string {
	return peerName(d + numDaemons*rng.Intn(numPeers/numDaemons))
}

// freshRecord is one new entity record in schema s: a subject no
// preloaded or other fresh record uses, and objects that are unique and
// never equal a query constant, so answers of the preload queries stay
// fixed while records arrive.
func freshRecord(s schema.Schema, subject string) []triple.Triple {
	out := make([]triple.Triple, 0, len(s.Attributes))
	for _, a := range s.Attributes {
		out = append(out, triple.Triple{Subject: subject, Predicate: s.PredicateURI(a), Object: subject + "|" + a})
	}
	return out
}

// workload is a named workload's query pool with the expected answers.
type workload struct {
	name   string
	checks []check
	// rdqlTexts are the distinct RDQL query texts (mixed only).
	rdqlTexts []string
	// queries lists, per check, the bioworkload query it came from
	// (reformulate only).
	queries []bioworkload.Query
}

// plan is one round's op sequences: the measured phase and the cross
// phase (the op type a single-type workload's measured phase lacks).
type plan struct {
	measured [numConns][]op
	cross    [numConns][]op
}

// seqLen is the per-connection length of a phase's op sequence.
func seqLen(phase string, seconds float64) int {
	n := int(nominalRate[phase] * seconds / numConns)
	if n < 1 {
		n = 1
	}
	return n
}

func connRng(seed int64, salt string, round, conn int) *rand.Rand {
	h := int64(0)
	for _, c := range salt {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed*7919 + h*104729 + int64(round)*131 + int64(conn)))
}

// newWorkload builds a named workload's query pool; fillReference then
// adds the expected answers.
func newWorkload(name string, d *dataset) (*workload, error) {
	wl := &workload{name: name}
	switch name {
	case "reformulate":
		qs := d.w.Queries(queryPool, rand.New(rand.NewSource(dataSeed+1)))
		for i := range qs {
			q := qs[i]
			wl.queries = append(wl.queries, q)
			wl.checks = append(wl.checks, check{pattern: &q.Pattern, reformulate: true, recall: patternRecall(q)})
		}
	case "ingest":
		// Read-back checks are added per round, from that round's writes.
	case "mixed":
		qs := d.w.Queries(queryPool, rand.New(rand.NewSource(dataSeed+3)))
		for _, q := range qs {
			text, rc, ok := conjunctive(d, q)
			if !ok {
				continue
			}
			wl.rdqlTexts = append(wl.rdqlTexts, text)
			wl.checks = append(wl.checks, check{rdqlText: text, reformulate: true, recall: rc})
		}
		if len(wl.checks) == 0 {
			return nil, fmt.Errorf("mixed: no conjunctive query could be formed")
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want reformulate, ingest or mixed)", name)
	}
	return wl, nil
}

// plan generates round r's op sequences, sized to seconds of nominal
// work, from the run's seed.
func (wl *workload) plan(d *dataset, r int, seconds float64) *plan {
	p := &plan{}
	n := seqLen(wl.name, seconds)
	nCross := seqLen(wl.name+"/cross", crossShare*seconds)
	tag := fmt.Sprintf("%s:%d:%d", wl.name, d.seed, r)
	switch wl.name {
	case "reformulate":
		for c := 0; c < numConns; c++ {
			rng := connRng(d.seed, wl.name, r, c)
			for _, q := range cycle(len(wl.checks), n, rng) {
				p.measured[c] = append(p.measured[c], op{kind: opQuery, peer: hostedPeer(c, rng), check: q})
			}
			p.cross[c] = recordWrites(d, tag, c, nCross, connRng(d.seed, wl.name+"/cross", r, c))
		}
	case "ingest":
		var acked []triple.Triple
		for c := 0; c < numConns; c++ {
			rng := connRng(d.seed, wl.name, r, c)
			var pending []triple.Triple
			rec := 0
			for len(p.measured[c]) < n {
				for len(pending) < ingestBatch {
					s := d.schemas[rng.Intn(len(d.schemas))]
					pending = append(pending, freshRecord(s, fmt.Sprintf("%s:%d:%d", tag, c, rec))...)
					rec++
				}
				batch := append([]triple.Triple(nil), pending[:ingestBatch]...)
				pending = pending[ingestBatch:]
				acked = append(acked, batch...)
				p.measured[c] = append(p.measured[c], op{kind: opWrite, peer: hostedPeer(c, rng), inserts: batch})
			}
		}
		// Read-back: point lookups of acknowledged triples. Each object
		// is unique, so the answer is exactly the triple's subject.
		rng := connRng(d.seed, wl.name+"/cross", r, 0)
		for i := 0; i < nCross*numConns; i++ {
			t := acked[rng.Intn(len(acked))]
			pat := triple.Pattern{S: triple.Var("x"), P: triple.Const(t.Predicate), O: triple.Const(t.Object)}
			want := []string{t.Subject}
			wl.checks = append(wl.checks, check{pattern: &pat, want: want, refRecall: 1, recall: func(rows []string) float64 {
				return float64(multisetOverlap(rows, want)) / float64(len(want))
			}})
			c := i % numConns
			p.cross[c] = append(p.cross[c], op{kind: opQuery, peer: hostedPeer(c, rng), check: len(wl.checks) - 1})
		}
	case "mixed":
		// Mapping replaces run in exclusive slots: every replaceEvery-th
		// op of both connections is a barrier, one connection replaces
		// while the other waits. ReplaceMapping deletes the old version and
		// inserts the new one as separate steps, so a query running
		// concurrently with it can miss the mapping and lose answers; the
		// slots keep that race out of the answer gate. Slot k toggles
		// mapping k's confidence 1 ↔ 0.9, which keeps every chain above
		// the 0.05 floor, so answers are unchanged.
		current := append([]schema.Mapping(nil), d.mappings...)
		slot := 0
		var rngs [numConns]*rand.Rand
		var queues [numConns][]int
		var recs [numConns]int
		for c := range rngs {
			rngs[c] = connRng(d.seed, wl.name, r, c)
		}
		for i := 0; i < n; i++ {
			if i%replaceEvery == replaceEvery-1 {
				owner, mi := slot%numConns, slot%len(current)
				slot++
				old := current[mi]
				upd := old
				upd.Confidence = 0.9
				if old.Confidence != 1 {
					upd.Confidence = 1
				}
				current[mi] = upd
				for c := 0; c < numConns; c++ {
					o := op{kind: opPause}
					if c == owner {
						o = op{kind: opReplace, peer: hostedPeer(c, rngs[c]), oldMap: old, newMap: upd}
					}
					p.measured[c] = append(p.measured[c], o)
				}
				continue
			}
			for c := 0; c < numConns; c++ {
				rng := rngs[c]
				if rng.Float64() < mixedWriteP {
					s := d.schemas[rng.Intn(len(d.schemas))]
					p.measured[c] = append(p.measured[c], op{kind: opWrite, peer: hostedPeer(c, rng),
						inserts: freshRecord(s, fmt.Sprintf("%s:%d:%d", tag, c, recs[c]))})
					recs[c]++
					continue
				}
				if len(queues[c]) == 0 {
					queues[c] = rng.Perm(len(wl.checks))
				}
				p.measured[c] = append(p.measured[c], op{kind: opRDQL, peer: hostedPeer(c, rng), check: queues[c][0]})
				queues[c] = queues[c][1:]
			}
		}
	}
	return p
}

// cycle returns n picks from [0, size) as back-to-back seeded
// permutations, so every query of the pool is asked equally often and
// the workload's recall does not depend on which queries a seed drew.
func cycle(size, n int, rng *rand.Rand) []int {
	out := make([]int, 0, n+size)
	for len(out) < n {
		out = append(out, rng.Perm(size)...)
	}
	return out[:n]
}

// recordWrites is a sequence of single-record writes of fresh entities.
func recordWrites(d *dataset, tag string, c, n int, rng *rand.Rand) []op {
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		s := d.schemas[rng.Intn(len(d.schemas))]
		out = append(out, op{kind: opWrite, peer: hostedPeer(c, rng),
			inserts: freshRecord(s, fmt.Sprintf("%s:w%d:%d", tag, c, i))})
	}
	return out
}

// patternRecall scores a reformulated single-pattern answer with
// bioworkload.Query.Recall. The wire returns variable bindings, not
// triples, so the found triples are rebuilt from the subject multiset:
// the k-th row for subject x stands for the k-th ground-truth triple of
// x. Each row of a reformulated answer is one distinct stored triple,
// so this equals the recall of the triples themselves; the reference
// recall, computed from the reference's actual triples, cross-checks it.
func patternRecall(q bioworkload.Query) func(rows []string) float64 {
	bySubject := map[string][]triple.Triple{}
	for _, t := range q.GroundTruth {
		bySubject[t.Subject] = append(bySubject[t.Subject], t)
	}
	for _, ts := range bySubject {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Predicate < ts[j].Predicate })
	}
	return func(rows []string) float64 {
		seen := map[string]int{}
		var found []triple.Triple
		for _, x := range rows {
			k := seen[x]
			seen[x]++
			if ts := bySubject[x]; k < len(ts) {
				found = append(found, ts[k])
			}
		}
		return q.Recall(found)
	}
}

// conjunctive turns a single-pattern query into the mixed workload's
// two-pattern RDQL query joined on ?x: the query's constant pattern plus
// a second attribute of the same schema with a variable object. Its
// recall is measured against the ground-truth join over every schema:
// the entities that carry the first concept's value in some schema and
// the second concept in some schema, paired with their second value.
func conjunctive(d *dataset, q bioworkload.Query) (string, func(rows []string) float64, bool) {
	pred := q.Pattern.P.Value
	schemaName, _, ok := schema.SplitPredicateURI(pred)
	if !ok {
		return "", nil, false
	}
	info := d.w.Info(schemaName)
	var concepts []string
	for c := range info.ConceptAttr {
		if c != q.Concept {
			concepts = append(concepts, c)
		}
	}
	if len(concepts) == 0 {
		return "", nil, false
	}
	sort.Strings(concepts)
	c2 := concepts[len(q.Value)%len(concepts)]
	rq := rdql.Query{
		Select: []string{"x", "y"},
		Patterns: []triple.Pattern{
			q.Pattern,
			{S: triple.Var("x"), P: triple.Const(info.Schema.PredicateURI(info.ConceptAttr[c2])), O: triple.Var("y")},
		},
	}
	var gt []string
	for _, e := range d.w.Entities {
		if e.Values[q.Concept] != q.Value {
			continue
		}
		has1, has2 := false, false
		for _, s := range e.Schemas {
			ca := d.w.Info(s).ConceptAttr
			if _, ok := ca[q.Concept]; ok {
				has1 = true
			}
			if _, ok := ca[c2]; ok {
				has2 = true
			}
		}
		if has1 && has2 {
			gt = append(gt, rowKey([]string{e.Subject, e.Values[c2]}))
		}
	}
	sort.Strings(gt)
	recall := func(rows []string) float64 {
		if len(gt) == 0 {
			return 1
		}
		return float64(multisetOverlap(rows, gt)) / float64(len(gt))
	}
	return rq.String(), recall, true
}

// rowKey flattens one answer row for multiset comparison.
func rowKey(r []string) string { return strings.Join(r, "\x00") }

// multisetOverlap counts the elements two sorted multisets share.
func multisetOverlap(a, b []string) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
