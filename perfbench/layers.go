package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"gridvine/internal/rdql"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/tcpnet"
)

// layerMetrics computes the per-layer metrics of a traced run over the
// client phases (measured + cross) of all its rounds, plus the traced
// run's own end-to-end figures, whose difference from the untraced run is
// the tracing overhead. diskBytes and triples are the last round's store
// size on disk and triples acknowledged.
func layerMetrics(cfg config, wl *workload, rounds []*round, rec *recorder, e2e map[string]metric, diskBytes int64, triples int) map[string]metric {
	const ph = "ops"
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var ops, replaces, written float64
	var overhead, rows, engine, firstRow, qMsgs, qReforms, wMsgs, wGroups []float64
	var hits, misses, inval, cpu, allocB, allocN, gcCPU, totalCPU, wireBytes float64
	var openMs, shutdownMs, replayMs []float64
	entries := 0
	for _, rd := range rounds {
		for _, phase := range rd.phases() {
			for c := range phase {
				for _, r := range phase[c] {
					ops++
					if r.err != nil {
						continue
					}
					switch r.kind {
					case opQuery, opRDQL:
						latUs := float64(r.lat.Nanoseconds()) / 1e3
						overhead = append(overhead, latUs-float64(r.stats.ElapsedMicros))
						rows = append(rows, float64(len(r.rows)))
						engine = append(engine, float64(r.stats.ElapsedMicros))
						if len(r.rows) > 0 {
							firstRow = append(firstRow, float64(r.stats.FirstRowMicros))
						}
						qMsgs = append(qMsgs, float64(r.stats.Messages))
						qReforms = append(qReforms, float64(r.stats.Reformulations))
					case opWrite:
						wMsgs = append(wMsgs, float64(r.receipt.Messages))
						wGroups = append(wGroups, float64(r.receipt.Groups))
						written += float64(r.written)
					case opReplace:
						replaces++
					}
				}
			}
		}
		entries = 0
		for i := range rd.stats1 {
			hits += float64(rd.stats1[i].ComposeHits - rd.stats0[i].ComposeHits)
			misses += float64(rd.stats1[i].ComposeMisses - rd.stats0[i].ComposeMisses)
			inval += float64(rd.stats1[i].ComposeInvalidations - rd.stats0[i].ComposeInvalidations)
			entries += rd.stats1[i].ComposeEntries
		}
		p0, p1 := rd.proc0, rd.proc1
		cpu += float64((p1.cpu - p0.cpu).Microseconds())
		allocB += p1.allocBytes - p0.allocBytes
		allocN += p1.allocObjs - p0.allocObjs
		gcCPU += p1.gcCPU - p0.gcCPU
		totalCPU += p1.cpuT - p0.cpuT
		wireBytes += float64(rd.bytes1 - rd.bytes0)
		for _, rs := range rd.restarts {
			openMs = append(openMs, float64(rs.recoverOpen.Microseconds())/1e3)
			shutdownMs = append(shutdownMs, float64(rs.shutdown.Microseconds())/1e3)
			replayMs = append(replayMs, float64(rs.replay.Microseconds())/1e3)
		}
	}
	writes := float64(len(wMsgs))

	put("wire.query_overhead_us_p50", median(overhead), "us")
	put("wire.rows_per_query", mean(rows), "count")
	put("mediation.engine_us_p50", median(engine), "us")
	put("mediation.engine_us_p99", quantile(engine, 0.99), "us")
	put("mediation.first_row_us_p50", median(firstRow), "us")
	put("mediation.msgs_per_query", mean(qMsgs), "count")
	put("mediation.reformulations_per_query", mean(qReforms), "count")
	put("mediation.msgs_per_write", mean(wMsgs), "count")
	put("mediation.groups_per_write", mean(wGroups), "count")

	put("compose.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("compose.invalidations_per_replace", ratio(inval, replaces), "count")
	put("compose.entries", float64(entries), "count")

	put("rdql.parse_us", parseMicros(wl.rdqlTexts), "us")

	sends := rec.durations(ph, spanSend, "*")
	handles := rec.durations(ph, spanHandle, "*")
	nMsgs := float64(len(sends))
	put("tcpnet.msgs_per_op", ratio(nMsgs, ops), "count")
	put("tcpnet.send_us_p50", median(sends), "us")
	put("tcpnet.send_us_p99", quantile(sends, 0.99), "us")
	put("tcpnet.bytes_per_msg", ratio(wireBytes, nMsgs), "B")
	put("tcpnet.overhead_us_per_msg", ratio(sum(sends)-sum(handles), nMsgs), "us")

	for _, t := range []string{"exec", "batch", "batchrep", "replicate"} {
		put("pgrid.msgs_per_op."+t, ratio(float64(len(rec.durations(ph, spanSend, "pgrid."+t))), ops), "count")
	}
	put("pgrid.exec_handle_us_p50", median(rec.durations(ph, spanHandle, "pgrid.exec")), "us")
	batch := rec.durations(ph, spanHandle, "pgrid.batch")
	put("pgrid.batch_handle_us_p50", median(batch), "us")
	put("pgrid.batch_handle_us_p99", quantile(batch, 0.99), "us")
	put("pgrid.batchrep_handle_us_p50", median(rec.durations(ph, spanHandle, "pgrid.batchrep")), "us")

	fsyncs := rec.durations(ph, spanFsync, "wal")
	snaps := rec.durations(ph, spanSnapshot, "")
	put("store.fsync_us_p50", median(fsyncs), "us")
	put("store.fsync_us_p99", quantile(fsyncs, 0.99), "us")
	put("store.fsyncs_per_write", ratio(float64(len(fsyncs)), writes), "count")
	put("store.wal_bytes_per_triple", ratio(float64(rec.bytes(ph, spanFsync, "wal")), written), "B")
	put("store.snapshots", float64(len(snaps)), "count")
	put("store.snapshot_ms_p50", median(snaps)/1e3, "ms")
	put("store.disk_bytes_per_triple", ratio(float64(diskBytes), float64(triples)), "B")
	put("store.recover_open_ms", median(openMs), "ms")
	put("daemon.shutdown_ms", median(shutdownMs), "ms")
	put("daemon.replay_ms", median(replayMs), "ms")

	put("proc.cpu_us_per_op", ratio(cpu, ops), "us")
	put("proc.alloc_bytes_per_op", ratio(allocB, ops), "B")
	put("proc.mallocs_per_op", ratio(allocN, ops), "count")
	put("proc.gc_cpu_fraction", ratio(gcCPU, totalCPU), "ratio")

	put("tcpnet.probe_rtt_us", probeRTT(), "us")
	put("store.probe_fsync_us", probeFsync(filepath.Join(cfg.workdir, "probe")), "us")

	for _, k := range []string{"setup_s", "ops_per_s", "query_p50_ms", "write_p50_ms", "restart_s"} {
		put("traced."+k, e2e[k].Value, e2e[k].Unit)
	}
	return m
}

// parseMicros is the mean time of rdql.Parse over the workload's query
// texts, repeated until at least 20ms have been timed.
func parseMicros(texts []string) float64 {
	if len(texts) == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, t := range texts {
			if _, err := rdql.Parse(t); err != nil {
				return 0
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// probeRTT is the median round trip of a trivial-payload Transport.Send
// between two loopback peers on a fresh tcpnet transport: the machine's
// loopback + gob cost, independent of GridVine's own layers.
func probeRTT() float64 {
	t := tcpnet.NewTransport()
	defer t.Close()
	echo := simnet.HandlerFunc(func(_ simnet.PeerID, msg simnet.Message) (simnet.Message, error) { return msg, nil })
	t.Register("probe-a", echo)
	t.Register("probe-b", echo)
	ctx := context.Background()
	var rtts []float64
	for i := 0; i < 300; i++ {
		start := time.Now()
		if _, err := t.Send(ctx, "probe-a", "probe-b", simnet.Message{Type: "probe"}); err != nil {
			return 0
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(rtts)
}

// probeFsync is the median time of one small append (write + fsync) on
// a fresh store.Log: the machine's fsync cost.
func probeFsync(dir string) float64 {
	l, _, err := store.Open(store.OsFS{}, dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		return 0
	}
	defer os.RemoveAll(dir)
	defer l.Close()
	var ds []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		if err := l.Append([]store.Entry{{Op: store.OpInsert, Key: "0101", Value: "probe"}}); err != nil {
			return 0
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(ds)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error { //nolint:errcheck // a vanished file just counts 0
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// processCPU is the user + system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
