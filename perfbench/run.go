package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/wire"
)

// victim is the daemon restarted after the client phases, restartsPerRound
// times. No client connects to it, so the restart only touches overlay
// peers.
const (
	victim           = numDaemons - 1
	restartsPerRound = 2
)

type runResult struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

// round is one fresh cluster's set-up, client phases and restart.
type round struct {
	plan     *plan
	dir      string
	setup    time.Duration        // first daemon.Start → preload acknowledged and serving
	results  [numConns][]opResult // measured phase
	cross    [numConns][]opResult
	elapsed  time.Duration // measured phase wall time
	stats0   []*wire.DaemonStats
	stats1   []*wire.DaemonStats
	proc0    procSample
	proc1    procSample
	bytes0   int64
	bytes1   int64
	restarts []restartStats
}

// phases are the round's client phases, measured first.
func (rd *round) phases() [][numConns][]opResult {
	return [][numConns][]opResult{rd.results, rd.cross}
}

// execution is a run's rounds; the last round's cluster is still
// serving.
type execution struct {
	d      *dataset
	wl     *workload
	rec    *recorder
	rounds []*round
	cl     cluster
}

// execute generates the run's inputs and reference answers, then runs
// cfg.rounds rounds, each on a freshly set-up cluster: preload, measured
// phase, cross phase, restart. The last round's cluster keeps serving.
func execute(cfg config) (*execution, error) {
	start := time.Now()
	defer func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %.2fs\n", cfg.workload, cfg.seed, time.Since(start).Seconds())
	}()
	ex := &execution{d: newDataset(cfg.seed)}
	var err error
	if ex.wl, err = newWorkload(cfg.workload, ex.d); err != nil {
		return nil, err
	}
	if err := fillReference(ex.d, ex.wl); err != nil {
		return nil, err
	}
	if cfg.trace {
		ex.rec = newRecorder()
	}
	perRound := float64(cfg.seconds) / float64(cfg.rounds)
	for r := 0; r < cfg.rounds; r++ {
		rd := &round{plan: ex.wl.plan(ex.d, r, perRound), dir: filepath.Join(cfg.workdir, fmt.Sprintf("round-%d", r))}
		ex.rec.setPhase("setup")
		t0 := time.Now()
		c, err := setup(rd.dir, ex.d, ex.rec)
		if err != nil {
			return nil, fmt.Errorf("round %d setup: %w", r, err)
		}
		rd.setup = time.Since(t0)
		if err := rd.run(c, ex.wl, ex.rec); err != nil {
			c.close() //nolint:errcheck // the round's error is the one to report
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		ex.rounds = append(ex.rounds, rd)
		fmt.Fprintf(os.Stderr, "perfbench: round %d: setup %.2fs, measured %.2fs, restart %.2fs, round %.2fs\n",
			r, rd.setup.Seconds(), rd.elapsed.Seconds(), rd.restarts[0].total.Seconds(), time.Since(t0).Seconds())
		if r == cfg.rounds-1 {
			ex.cl = c
			break
		}
		if err := c.close(); err != nil {
			return nil, fmt.Errorf("round %d teardown: %w", r, err)
		}
		if err := os.RemoveAll(rd.dir); err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// setup starts a cluster in dir (traced when rec is set), preloads it and
// returns once every daemon serves: the interval setup_s measures.
func setup(dir string, d *dataset, rec *recorder) (cluster, error) {
	var c cluster
	var err error
	if rec != nil {
		c, err = startTracedCluster(dir, dataSeed, rec)
	} else {
		c, err = startDaemonCluster(dir, dataSeed)
	}
	if err != nil {
		return nil, err
	}
	err = preload(c, d)
	for _, a := range c.clientAddrs() {
		if err != nil {
			break
		}
		err = waitServing(a)
	}
	if err != nil {
		c.close() //nolint:errcheck // the preload error is the one to report
		return nil, err
	}
	return c, nil
}

// run drives the round's measured and cross phases, then restarts the
// victim daemon restartsPerRound times.
func (rd *round) run(cl cluster, wl *workload, rec *recorder) error {
	addrs := cl.clientAddrs()
	var opIDs atomic.Uint64
	var err error
	rec.setPhase("ops")
	if rd.stats0, err = daemonStats(addrs); err != nil {
		return err
	}
	rd.bytes0 = transportBytes(cl)
	rd.proc0 = readProc()
	if rd.results, rd.elapsed, err = runOps(addrs, rd.plan.measured, wl, rec, &opIDs); err != nil {
		return err
	}
	if rd.cross, _, err = runOps(addrs, rd.plan.cross, wl, rec, &opIDs); err != nil {
		return err
	}
	rd.proc1 = readProc()
	rd.bytes1 = transportBytes(cl)
	if rd.stats1, err = daemonStats(addrs); err != nil {
		return err
	}
	rec.setPhase("restart")
	for i := 0; i < restartsPerRound; i++ {
		rs, err := cl.restart(victim)
		if err != nil {
			return err
		}
		rd.restarts = append(rd.restarts, rs)
	}
	return nil
}

// gates checks a run's outputs and returns one line per violation:
// every answer equals the reference's, the recall equals the
// reference's, and every restart recovered the digests it shut down
// with.
func gates(wl *workload, rounds []*round) []string {
	var out []string
	for i, rd := range rounds {
		for _, rs := range rd.restarts {
			if !digestsEqual(rs.final, rs.recovered) {
				out = append(out, fmt.Sprintf("round %d: restarted daemon %d recovered digests %v, shut down with %v", i, victim, rs.recovered, rs.final))
			}
		}
		for _, phase := range rd.phases() {
			if wrong, first := verify(phase, wl); wrong > 0 {
				out = append(out, fmt.Sprintf("round %d: %d answers differ from the reference; first: %s", i, wrong, first))
			}
		}
	}
	if got, want := recalls(rounds, wl); math.Abs(got-want) > 1e-9 {
		out = append(out, fmt.Sprintf("recall %.6f != reference recall %.6f", got, want))
	}
	return out
}

func run(cfg config) (*runResult, error) {
	ex, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	cl := ex.cl
	closed := false
	defer func() {
		if !closed {
			cl.close() //nolint:errcheck // an earlier error is the one to report
		}
	}()
	res := &runResult{}
	for _, g := range gates(ex.wl, ex.rounds) {
		res.notes = append(res.notes, "gate failed: "+g)
	}
	res.correct = len(res.notes) == 0

	// ops_per_s is the interquartile mean over the 1 s windows of every
	// round's measured phase, the p50s are medians over chunks of
	// consecutive ops, the p99s pool the samples of every round, and
	// setup_s and restart_s are medians over rounds and restarts.
	var queryLat, writeLat, queryP50s, writeP50s, rates, setups, restarts []float64
	lastTriples := 0
	for _, rd := range ex.rounds {
		setups = append(setups, rd.setup.Seconds())
		for _, rs := range rd.restarts {
			restarts = append(restarts, rs.total.Seconds())
		}
		lastTriples = len(ex.d.preload)
		for pi, phase := range rd.phases() {
			var done []time.Duration
			var ops []opResult
			for c := range phase {
				ops = append(ops, phase[c]...)
			}
			sort.Slice(ops, func(i, j int) bool { return ops[i].done < ops[j].done })
			var qLat, wLat []float64
			for _, r := range ops {
				res.attempted++
				ms := float64(r.lat.Nanoseconds()) / 1e6
				if r.err != nil {
					res.failed++
					// A failed request misses every latency limit.
					ms = float64(opTimeout.Milliseconds())
					if len(res.notes) < 16 {
						res.notes = append(res.notes, fmt.Sprintf("op failed: %v", r.err))
					}
				}
				switch r.kind {
				case opQuery, opRDQL:
					qLat = append(qLat, ms)
				case opWrite:
					wLat = append(wLat, ms)
				}
				done = append(done, r.done)
				lastTriples += r.written
			}
			if pi == 0 {
				rates = windowCounts(rates, done, rd.elapsed)
			}
			queryLat, writeLat = append(queryLat, qLat...), append(writeLat, wLat...)
			queryP50s, writeP50s = chunkMedians(queryP50s, qLat), chunkMedians(writeP50s, wLat)
		}
	}
	recall, _ := recalls(ex.rounds, ex.wl)
	e2e := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {interquartileMean(rates), "1/s"},
		"query_p50_ms": {median(queryP50s), "ms"},
		"query_p99_ms": {quantile(queryLat, 0.99), "ms"},
		"write_p50_ms": {median(writeP50s), "ms"},
		"write_p99_ms": {quantile(writeLat, 0.99), "ms"},
		"recall":       {recall, "ratio"},
		"restart_s":    {median(restarts), "s"},
	}
	if cfg.trace {
		last := ex.rounds[len(ex.rounds)-1]
		res.metrics = layerMetrics(cfg, ex.wl, ex.rounds, ex.rec, e2e, dirSize(last.dir), lastTriples)
		dropped, err := ex.rec.writeOut(spansPath(cfg))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		if dropped > 0 {
			res.notes = append(res.notes, fmt.Sprintf("span file holds the first %d spans; %d more were only aggregated", maxSpans, dropped))
		}
	} else {
		res.metrics = e2e
	}

	// Live heap of the last round's serving cluster: drop everything the
	// benchmark itself holds first (the reference is already garbage).
	ex = nil
	runtime.GC()
	runtime.GC()
	heap := readMetric("/gc/heap/live:bytes")
	if !cfg.trace {
		res.metrics["heap_bytes_per_triple"] = metric{heap / float64(lastTriples), "B"}
	}
	closed = true
	if err := cl.close(); err != nil {
		return nil, fmt.Errorf("cluster shutdown: %w", err)
	}
	return res, nil
}

// preload publishes the schemas and mappings, then the triples in
// fixed-size batches from both connections.
func preload(c cluster, d *dataset) error {
	addrs := c.clientAddrs()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	clients := make([]*wire.Client, numConns)
	for i := range clients {
		cl, err := wire.Dial(addrs[i])
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[i] = cl
	}
	rc, err := clients[0].Write(ctx, wire.Write{Peer: peerName(0), Schemas: d.schemas, Mappings: d.mappings})
	if err == nil && rc.Failed != 0 {
		err = fmt.Errorf("%d entries failed: %v", rc.Failed, rc.EntryErrs)
	}
	if err != nil {
		return fmt.Errorf("preload schemas and mappings: %w", err)
	}
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for c := 0; c < numConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b, k := c*preloadBatch, 0; b < len(d.preload); b, k = b+numConns*preloadBatch, k+1 {
				batch := d.preload[b:min(b+preloadBatch, len(d.preload))]
				peer := peerName(c + numDaemons*(k%(numPeers/numDaemons)))
				rc, err := clients[c].Write(ctx, wire.Write{Peer: peer, Inserts: batch})
				if err == nil && (rc.Failed != 0 || rc.Applied != len(batch)) {
					err = fmt.Errorf("applied %d of %d: %v", rc.Applied, len(batch), rc.EntryErrs)
				}
				if err != nil {
					errs[c] = fmt.Errorf("preload batch at %d: %w", b, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func daemonStats(addrs []string) ([]*wire.DaemonStats, error) {
	out := make([]*wire.DaemonStats, 0, len(addrs))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, a := range addrs {
		c, err := wire.Dial(a)
		if err != nil {
			return nil, fmt.Errorf("stats dial daemon %d: %w", i, err)
		}
		st, err := c.Stats(ctx)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("stats daemon %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

func digestsEqual(a, b map[string]uint64) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// recalls returns the recall of the distinct queries the run asked, each
// scored by the mean recall of its answers (a failed op scores 0), and
// the reference's recall of the same queries. Every pool query is asked
// in every run, so the figure does not depend on how often a seed drew
// each one.
func recalls(rounds []*round, wl *workload) (got, want float64) {
	type acc struct {
		sum float64
		n   int
	}
	per := map[int]*acc{}
	for _, rd := range rounds {
		for _, phase := range rd.phases() {
			for c := range phase {
				for _, r := range phase[c] {
					if r.kind != opQuery && r.kind != opRDQL {
						continue
					}
					a := per[r.check]
					if a == nil {
						a = &acc{}
						per[r.check] = a
					}
					if r.err == nil {
						a.sum += wl.checks[r.check].recall(r.rows)
					}
					a.n++
				}
			}
		}
	}
	if len(per) == 0 {
		return 0, 0
	}
	for check, a := range per {
		got += a.sum / float64(a.n)
		want += wl.checks[check].refRecall
	}
	return got / float64(len(per)), want / float64(len(per))
}

// procSample is the process-wide CPU and allocation counters.
type procSample struct {
	cpu         time.Duration
	allocBytes  float64
	allocObjs   float64
	gcCPU, cpuT float64
}

func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procSample{
		cpu:        processCPU(),
		allocBytes: sampleValue(s[0]),
		allocObjs:  sampleValue(s[1]),
		gcCPU:      sampleValue(s[2]),
		cpuT:       sampleValue(s[3]),
	}
}

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return sampleValue(s[0])
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// transportBytes sums the overlay bytes the traced cluster's transports
// moved; the untraced cluster's transports are not reachable.
func transportBytes(c cluster) int64 {
	tc, ok := c.(*tracedCluster)
	if !ok {
		return 0
	}
	var n int64
	for _, d := range tc.ds {
		s, r := d.transport.Bytes()
		n += s + r
	}
	return n
}
