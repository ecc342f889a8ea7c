package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"

	"gridvine/internal/triple"
)

// stateEntries returns n distinct insert entries, the shape of a hot
// peer's overlay store.
func stateEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Op: OpInsert, Key: "0110", Value: triple.Triple{
			Subject: fmt.Sprintf("urn:s%d", i), Predicate: "urn:p", Object: fmt.Sprintf("o%d", i),
		}}
	}
	return out
}

func smallEntry(i int) []Entry {
	return []Entry{{Op: OpInsert, Key: "0110", Value: triple.Triple{
		Subject: "urn:new", Predicate: "urn:p", Object: fmt.Sprintf("n%d", i),
	}}}
}

// amortizedRun feeds small appends to a log whose snapshot source is
// *state, checking after each that MaybeSnapshot fired exactly when
// both thresholds held, and totals the bytes it saw written.
type amortizedRun struct {
	l         *Log
	state     *[]Entry
	sinceSnap int // records since the last snapshot
	snapTotal int64
	snapMax   int64
	walTotal  int64
}

func (r *amortizedRun) feed(t *testing.T, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := r.l.Append(smallEntry(i)); err != nil {
			t.Fatal(err)
		}
		*r.state = append(*r.state, smallEntry(i)...)
		r.sinceSnap++
		before := r.l.SnapshotStats()
		if err := r.l.MaybeSnapshot(); err != nil {
			t.Fatal(err)
		}
		after := r.l.SnapshotStats()
		due := r.sinceSnap >= defaultSnapshotEvery && before.WALBytes >= before.LastBytes
		if fired := after.Snapshots == before.Snapshots+1; fired != due {
			t.Fatalf("append %d: snapshot fired=%v with %d records and %d/%d WAL/snapshot bytes",
				i, fired, r.sinceSnap, before.WALBytes, before.LastBytes)
		}
		if after.Snapshots > before.Snapshots {
			if after.WALBytes != 0 || after.Time <= before.Time {
				t.Fatalf("append %d: snapshot left stats %+v", i, after)
			}
			r.walTotal += before.WALBytes
			r.snapTotal += after.LastBytes
			r.snapMax = max(r.snapMax, after.LastBytes)
			r.sinceSnap = 0
		}
	}
}

// TestSnapshotAmortized pins the snapshot trigger at default options:
// MaybeSnapshot fires exactly when both SnapshotEvery records and the
// last snapshot's size in WAL bytes have been made durable since it,
// so total snapshot bytes stay within one snapshot plus twice the WAL
// volume, and a reopen carries both counters across.
func TestSnapshotAmortized(t *testing.T) {
	const appends = 2000
	var big *amortizedRun
	var bigFS *FaultFS
	var bigState []Entry
	// The 20k-entry source snapshots once (at SnapshotEvery, since no
	// snapshot exists yet); the 2k-entry one crosses the byte
	// threshold several times.
	for _, c := range []struct{ entries, minSnaps int }{{20000, 1}, {2000, 3}} {
		fs := NewMemFS()
		l, _, err := Open(fs, "d", Options{})
		if err != nil {
			t.Fatal(err)
		}
		state := stateEntries(c.entries)
		l.SetSnapshotSource(func() ([]Entry, []Entry) { return state, nil })
		r := &amortizedRun{l: l, state: &state}
		r.feed(t, 0, appends)
		last := l.SnapshotStats()
		r.walTotal += last.WALBytes
		if last.Snapshots < int64(c.minSnaps) {
			t.Fatalf("%d-entry source: %d snapshots, want at least %d", c.entries, last.Snapshots, c.minSnaps)
		}
		if r.snapTotal > r.snapMax+2*r.walTotal {
			t.Fatalf("%d-entry source: %d snapshots wrote %d bytes; bound is one snapshot (%d) + 2 x %d WAL bytes",
				c.entries, last.Snapshots, r.snapTotal, r.snapMax, r.walTotal)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if big == nil {
			big, bigFS, bigState = r, fs, state
		}
	}

	// A reopen seeds both counters from disk, the snapshot file's size
	// and the WAL's length, so the next append does not snapshot even
	// though the record count alone is past SnapshotEvery.
	last := big.l.SnapshotStats()
	l2, rec, err := Open(bigFS, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records < defaultSnapshotEvery {
		t.Fatalf("only %d WAL records at reopen; the check needs the record threshold met", rec.Records)
	}
	got := l2.SnapshotStats()
	if got.LastBytes != last.LastBytes || got.WALBytes != last.WALBytes || got.Snapshots != 0 {
		t.Fatalf("reopened stats %+v; want last snapshot %d bytes, %d WAL bytes, 0 snapshots",
			got, last.LastBytes, last.WALBytes)
	}
	state := bigState
	l2.SetSnapshotSource(func() ([]Entry, []Entry) { return state, nil })
	(&amortizedRun{l: l2, state: &state, sinceSnap: rec.Records}).feed(t, appends, 1)
	if n := l2.SnapshotStats().Snapshots; n != 0 {
		t.Fatalf("reopen caused %d immediate snapshot(s)", n)
	}

	// Explicit Snapshot ignores both thresholds and resets the WAL.
	if err := l2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := l2.SnapshotStats(); st.Snapshots != 1 || st.WALBytes != 0 {
		t.Fatalf("explicit snapshot left stats %+v", st)
	}
	if wal, _ := bigFS.ReadFile(filepath.Join("d", walFile)); len(wal) != 0 {
		t.Fatalf("explicit snapshot left %d WAL bytes", len(wal))
	}
	l2.Close()

	// SnapshotEvery < 0 never snapshots on its own.
	off, _, err := Open(NewMemFS(), "off", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	off.SetSnapshotSource(func() ([]Entry, []Entry) { return state, nil })
	for i := 0; i < 2*defaultSnapshotEvery; i++ {
		if err := off.Append(smallEntry(i)); err != nil {
			t.Fatal(err)
		}
		if err := off.MaybeSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if n := off.SnapshotStats().Snapshots; n != 0 {
		t.Fatalf("SnapshotEvery -1 took %d snapshots", n)
	}
	off.Close()
}

// TestEncodeRecordFormat pins the frame bytes: the length and CRC32C
// header followed by a fresh gob stream of the record.
func TestEncodeRecordFormat(t *testing.T) {
	rec := Record{Seq: 7, Entries: append(stateEntries(3), Entry{Op: OpDelete, Key: "1", Value: triple.Triple{Subject: "x"}})}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.AppendUint32(nil, uint32(payload.Len()))
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload.Bytes(), crcTable))
	want = append(want, payload.Bytes()...)
	got, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeRecord framed %d bytes that differ from the %d-byte reference", len(got), len(want))
	}
}

// TestJoinEntries checks the snapshot payload is items then tombs,
// taken in place when a source built them in one backing array.
func TestJoinEntries(t *testing.T) {
	all := stateEntries(5)
	all[3].Op, all[4].Op = OpDelete, OpDelete
	items, tombs := all[:3], all[3:]
	if got := joinEntries(items, tombs); len(got) != 5 || &got[0] != &all[0] {
		t.Fatal("contiguous items and tombs were copied")
	}
	apart := append([]Entry(nil), tombs...)
	got := joinEntries(items, apart)
	if len(got) != 5 || got[3] != tombs[0] || got[4] != tombs[1] || &got[0] == &all[0] {
		t.Fatalf("separate slices joined to %v", got)
	}
	if got := joinEntries(items, nil); len(got) != 3 {
		t.Fatalf("items alone joined to %d entries", len(got))
	}
	if got := joinEntries(all[:0], all); len(got) != 5 || &got[0] != &all[0] {
		t.Fatal("tombs alone were copied")
	}
	if got := joinEntries(nil, apart); len(got) != 2 || got[0] != tombs[0] {
		t.Fatalf("tombs after no items joined to %v", got)
	}
}

// BenchmarkAppendLargeState appends one small record per op against a
// ~30k-entry snapshot source at default options: B/op shows what the
// snapshot trigger amortizes into each write. It runs on the real
// filesystem because MemFS copies a whole file on every Sync, which
// would charge the WAL's length to each append.
func BenchmarkAppendLargeState(b *testing.B) {
	l, _, err := Open(OsFS{}, b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	state := stateEntries(30000)
	l.SetSnapshotSource(func() ([]Entry, []Entry) { return state, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := smallEntry(i)
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
		state = append(state, e...)
		if err := l.MaybeSnapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(l.SnapshotStats().Snapshots), "snapshots")
}
