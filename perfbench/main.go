// Command perfbench is GridVine's end-to-end benchmark. It starts a
// 4-daemon / 16-peer / replica-2 cluster inside its own process through
// daemon.Start (so tcpnet loopback sockets, fsync'd store WALs and the
// wire protocol run unchanged), preloads the paper-scale bioworkload set
// over the wire, drives one named workload from two closed-loop wire
// clients, checks every answer against an in-process simnet reference,
// and prints one JSON result line.
//
//	go run . --workload reformulate --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same cluster is assembled from daemon.Start's
// constructors with timing wrappers at the transport, handler and
// filesystem interfaces, and the per-layer metrics are printed instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// rounds is how many fresh clusters the run sets up, drives for
	// seconds/rounds and restarts.
	rounds int
}

// defaultRounds: three set-ups and six restarts give setup_s and
// restart_s medians, and bound how far ingest grows one cluster.
const defaultRounds = 3

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: reformulate, ingest or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op sequences")
	flag.IntVar(&cfg.seconds, "seconds", 24, "nominal length of the measured phases, all rounds together")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced cluster and prints per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "directory for cluster state")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.rounds = defaultRounds
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(cfg.workdir, fmt.Sprintf("%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.workdir = dir
	res, err := run(cfg)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.notes {
		fmt.Fprintln(os.Stderr, line)
	}
	out := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
	if !res.correct {
		os.Exit(1)
	}
}

// spansPath is where a traced run writes its spans.
func spansPath(cfg config) string {
	return filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
}
