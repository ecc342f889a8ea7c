package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gridvine/internal/simnet"
	"gridvine/internal/store"
)

// Span names recorded at the layer boundaries the traced cluster
// interposes on. Each is timed from outside the program, around a call
// into the layer's public interface.
const (
	spanOp       = "client.op"      // one client request, send to reply
	spanSend     = "tcpnet.send"    // simnet.Transport.Send over tcpnet
	spanHandle   = "pgrid.handle"   // simnet.Handler.HandleMessage
	spanFsync    = "store.fsync"    // store.File.Sync
	spanSnapshot = "store.snapshot" // snapshot.tmp create → rename
)

// maxSpans bounds the in-memory span buffer; aggregates keep counting
// past it, so only the written-out span file is truncated.
const maxSpans = 1 << 20

// span is one timed interval. Remote spans carry Op 0: a handler gets no
// context, so it cannot be tied to the client op that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// recorder keeps spans in memory, tagged with the run phase they
// happened in, and writes them out when the run ends. A nil recorder
// records nothing, which is how the untraced run uses the same code.
type recorder struct {
	origin time.Time

	mu      sync.Mutex
	phase   string
	nextID  uint64
	spans   []span
	dropped int
	// agg holds every span's duration (and bytes) by phase/name/attr,
	// including spans past maxSpans.
	agg map[aggKey]*aggVal
}

type aggKey struct{ phase, name, attr string }

type aggVal struct {
	durs  []float64 // microseconds
	bytes int64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), phase: "setup", agg: map[aggKey]*aggVal{}}
}

func (r *recorder) setPhase(p string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// newID reserves a span ID, for a span whose children finish before it.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// record stores one finished span under id (0 allocates one).
func (r *recorder) record(id uint64, name, attr string, op, parent uint64, start, end time.Time, bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	k := aggKey{r.phase, name, attr}
	v := r.agg[k]
	if v == nil {
		v = &aggVal{}
		r.agg[k] = v
	}
	v.durs = append(v.durs, float64(end.Sub(start).Nanoseconds())/1e3)
	v.bytes += bytes
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Attr: attr, Op: op, Phase: r.phase,
			Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(), Bytes: bytes})
	} else {
		r.dropped++
	}
}

// durations returns the span durations (µs) of name in phase, over all
// attrs when attr is "*".
func (r *recorder) durations(phase, name, attr string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for k, v := range r.agg {
		if k.phase == phase && k.name == name && (attr == "*" || k.attr == attr) {
			out = append(out, v.durs...)
		}
	}
	return out
}

// bytes sums the bytes recorded on name/attr spans in phase.
func (r *recorder) bytes(phase, name, attr string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for k, v := range r.agg {
		if k.phase == phase && k.name == name && k.attr == attr {
			n += v.bytes
		}
	}
	return n
}

// writeOut dumps the kept spans as JSON lines and returns how many spans
// past maxSpans were only aggregated.
func (r *recorder) writeOut(path string) (dropped int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return r.dropped, f.Close()
}

// tracedRegistrar is the staging registrar the traced daemon hands to
// pgrid.Build: it captures each node's handler wrapped in a timing
// handler, and times every overlay Send it forwards to the real
// transport.
type tracedRegistrar struct {
	send     func(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error)
	rec      *recorder
	handlers map[simnet.PeerID]simnet.Handler
}

func (s *tracedRegistrar) Register(id simnet.PeerID, h simnet.Handler) {
	s.handlers[id] = &tracedHandler{h: h, rec: s.rec}
}

func (s *tracedRegistrar) Send(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	start := time.Now()
	resp, err := s.send(ctx, from, to, msg)
	s.rec.record(0, spanSend, msg.Type, 0, 0, start, time.Now(), 0)
	return resp, err
}

// tracedHandler times one overlay handler invocation, keyed by message
// type.
type tracedHandler struct {
	h   simnet.Handler
	rec *recorder
}

func (t *tracedHandler) HandleMessage(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	start := time.Now()
	resp, err := t.h.HandleMessage(from, msg)
	t.rec.record(0, spanHandle, msg.Type, 0, 0, start, time.Now(), 0)
	return resp, err
}

// File names the store uses inside a journal directory.
const (
	walFile     = "wal.log"
	snapTmpFile = "snapshot.tmp"
)

// tracedFS wraps the real filesystem the journals use: it times every
// fsync, counts WAL bytes, and spans each snapshot from the temp file's
// creation to its rename, as the parent of the temp file's fsync.
type tracedFS struct {
	store.OsFS
	rec *recorder

	mu       sync.Mutex
	snapOpen map[string]openSnapshot // by journal directory
}

type openSnapshot struct {
	id    uint64
	start time.Time
}

func newTracedFS(rec *recorder) *tracedFS {
	return &tracedFS{rec: rec, snapOpen: map[string]openSnapshot{}}
}

func (f *tracedFS) Create(name string) (store.File, error) {
	var parent uint64
	if filepath.Base(name) == snapTmpFile {
		snap := openSnapshot{id: f.rec.newID(), start: time.Now()}
		parent = snap.id
		f.mu.Lock()
		f.snapOpen[filepath.Dir(name)] = snap
		f.mu.Unlock()
	}
	file, err := f.OsFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, rec: f.rec, wal: filepath.Base(name) == walFile, parent: parent}, nil
}

func (f *tracedFS) Append(name string) (store.File, error) {
	file, err := f.OsFS.Append(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, rec: f.rec, wal: filepath.Base(name) == walFile}, nil
}

func (f *tracedFS) Rename(oldname, newname string) error {
	err := f.OsFS.Rename(oldname, newname)
	if filepath.Base(oldname) == snapTmpFile {
		f.mu.Lock()
		snap, ok := f.snapOpen[filepath.Dir(oldname)]
		delete(f.snapOpen, filepath.Dir(oldname))
		f.mu.Unlock()
		if ok {
			f.rec.record(snap.id, spanSnapshot, "", 0, 0, snap.start, time.Now(), 0)
		}
	}
	return err
}

// tracedFile counts the bytes written since the last Sync and records
// them on the fsync span that makes them durable.
type tracedFile struct {
	store.File
	rec     *recorder
	wal     bool
	parent  uint64 // the snapshot span, for a snapshot temp file
	pending int64
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.pending += int64(n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	attr := "snapshot"
	if f.wal {
		attr = "wal"
	}
	f.rec.record(0, spanFsync, attr, 0, f.parent, start, time.Now(), f.pending)
	f.pending = 0
	return err
}
