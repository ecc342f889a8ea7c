package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"gridvine/internal/triple"
)

// crashBatch is one workload step: a batch insert or batch delete.
type crashBatch struct {
	del bool
	ts  []triple.Triple
}

// crashWorkload builds a deterministic mixed batch sequence: mostly
// inserts, with deletes of previously inserted triples sprinkled in so
// recovery has to respect op order, sized to cross several snapshot
// thresholds.
func crashWorkload(seed int64, batches int) []crashBatch {
	rng := rand.New(rand.NewSource(seed))
	var out []crashBatch
	var live []triple.Triple
	for b := 0; b < batches; b++ {
		if b >= 3 && rng.Intn(4) == 0 && len(live) >= 2 {
			k := 1 + rng.Intn(2)
			var del []triple.Triple
			for i := 0; i < k; i++ {
				j := rng.Intn(len(live))
				del = append(del, live[j])
				live = append(live[:j], live[j+1:]...)
			}
			out = append(out, crashBatch{del: true, ts: del})
			continue
		}
		n := 2 + rng.Intn(4)
		ts := make([]triple.Triple, n)
		for i := range ts {
			ts[i] = triple.Triple{
				Subject:   fmt.Sprintf("urn:s%d", rng.Intn(40)),
				Predicate: fmt.Sprintf("urn:p%d", rng.Intn(6)),
				Object:    fmt.Sprintf("o%d-%d", b, i),
			}
		}
		live = append(live, ts...)
		out = append(out, crashBatch{ts: ts})
	}
	return out
}

// referenceDigests returns digest[i] = ContentDigest of an in-memory
// store that applied exactly the first i batches.
func referenceDigests(batches []crashBatch) []uint64 {
	ref := triple.NewDB()
	out := make([]uint64, 0, len(batches)+1)
	out = append(out, ref.ContentDigest())
	for _, b := range batches {
		if b.del {
			ref.DeleteBatch(b.ts)
		} else {
			ref.InsertBatch(b.ts)
		}
		out = append(out, ref.ContentDigest())
	}
	return out
}

var crashOpts = Options{SnapshotEvery: 3}

// snapRenameCounter counts the renames that install a snapshot.
type snapRenameCounter struct {
	*FaultFS
	renames int
}

func (f *snapRenameCounter) Rename(oldname, newname string) error {
	if filepath.Base(newname) == snapFile {
		f.renames++
	}
	return f.FaultFS.Rename(oldname, newname)
}

// feedUntilFailure runs the workload against a DurableDB on fsys until
// the first durability failure (or completion) and returns the number
// of batches durably acked — appends whose write+fsync returned nil.
func feedUntilFailure(fsys FS, batches []crashBatch) (acked uint64) {
	d, _, err := OpenDB(fsys, "peer", crashOpts)
	if err != nil {
		return 0
	}
	for _, b := range batches {
		if b.del {
			d.DeleteBatch(b.ts)
		} else {
			d.InsertBatch(b.ts)
		}
		if d.Err() != nil {
			break
		}
	}
	return d.log.Seq()
}

// TestCrashMatrix kills the store at EVERY write/fsync/rename boundary
// of the workload, in both crash modes, then runs recovery on the
// post-crash disk image and asserts the core durability invariants:
//
//  1. recovery always succeeds (a crash can never wedge the store);
//  2. the recovered content is ContentDigest-identical to a reference
//     store that applied exactly the prefix of batches recovery
//     reports (no partial batch is ever visible);
//  3. that prefix covers at least every acked batch (fsync'd data is
//     never lost) and at most what was fed;
//  4. recovery is idempotent — reopening again yields the same state.
//
// Torn mode additionally proves checksum-corrupt tails are truncated,
// never absorbed: the matrix must hit at least one truncation.
func TestCrashMatrix(t *testing.T) {
	const nBatches = 14
	batches := crashWorkload(42, nBatches)
	refs := referenceDigests(batches)

	// Clean run: counts the op universe and sanity-checks the workload.
	clean := &snapRenameCounter{FaultFS: NewFaultFS(1)}
	if acked := feedUntilFailure(clean, batches); acked != uint64(len(batches)) {
		t.Fatalf("clean run acked %d of %d batches", acked, len(batches))
	}
	totalOps := clean.Ops()
	if totalOps < 2*nBatches {
		t.Fatalf("implausibly few ops in clean run: %d", totalOps)
	}
	// The matrix must cross snapshot boundaries, or a change to the
	// snapshot trigger could silently drop them from coverage.
	if clean.renames == 0 {
		t.Fatalf("clean run under %+v crossed no snapshot rename", crashOpts)
	}
	t.Logf("%d crash points, %d snapshot renames", totalOps, clean.renames)

	for _, torn := range []bool{false, true} {
		truncations := 0
		for op := 1; op <= totalOps; op++ {
			name := fmt.Sprintf("torn=%v/op=%d", torn, op)
			fs := NewFaultFS(int64(1000*op) + 7)
			fs.CrashAt(op, torn)
			acked := feedUntilFailure(fs, batches)
			if !fs.Crashed() {
				t.Fatalf("%s: crash never fired", name)
			}

			view := fs.CrashedView()
			d, rec, err := OpenDB(view, "peer", crashOpts)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", name, err)
			}
			if rec.TruncatedBytes > 0 {
				truncations++
			}
			if rec.LastSeq < acked {
				t.Fatalf("%s: recovered seq %d < acked %d — fsync'd batch lost", name, rec.LastSeq, acked)
			}
			if rec.LastSeq > uint64(len(batches)) {
				t.Fatalf("%s: recovered seq %d > fed %d", name, rec.LastSeq, len(batches))
			}
			if got, want := d.ContentDigest(), refs[rec.LastSeq]; got != want {
				t.Fatalf("%s: recovered digest %x != reference prefix digest %x (seq %d)",
					name, got, want, rec.LastSeq)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}

			// Recovery must be idempotent: a second open (e.g. a crash
			// during the first recovery's restart) sees the same state.
			d2, rec2, err := OpenDB(view, "peer", crashOpts)
			if err != nil {
				t.Fatalf("%s: re-recovery failed: %v", name, err)
			}
			if rec2.LastSeq != rec.LastSeq || d2.ContentDigest() != refs[rec.LastSeq] {
				t.Fatalf("%s: re-recovery diverged (seq %d vs %d)", name, rec2.LastSeq, rec.LastSeq)
			}
			if rec2.TruncatedBytes != 0 {
				t.Fatalf("%s: first recovery left a corrupt tail behind (%d bytes)", name, rec2.TruncatedBytes)
			}
			d2.Close()
		}
		if torn && truncations == 0 {
			t.Fatalf("torn matrix never exercised tail truncation (%d crash points)", totalOps)
		}
	}
}

// TestCrashMatrixWriteResume verifies the store is writable after
// recovery: crash mid-workload, recover, feed the remaining batches,
// and land on the full reference state.
func TestCrashMatrixWriteResume(t *testing.T) {
	batches := crashWorkload(42, 14)
	refs := referenceDigests(batches)
	clean := NewFaultFS(1)
	feedUntilFailure(clean, batches)
	totalOps := clean.Ops()

	// A sparse sample of crash points keeps this additive check cheap.
	for op := 1; op <= totalOps; op += 5 {
		fs := NewFaultFS(int64(op))
		fs.CrashAt(op, true)
		feedUntilFailure(fs, batches)
		view := fs.CrashedView()
		d, rec, err := OpenDB(view, "peer", crashOpts)
		if err != nil {
			t.Fatalf("op %d: recovery: %v", op, err)
		}
		for _, b := range batches[rec.LastSeq:] {
			if b.del {
				d.DeleteBatch(b.ts)
			} else {
				d.InsertBatch(b.ts)
			}
		}
		if err := d.Err(); err != nil {
			t.Fatalf("op %d: resumed writes failed: %v", op, err)
		}
		if got, want := d.ContentDigest(), refs[len(batches)]; got != want {
			t.Fatalf("op %d: resumed store digest %x != full reference %x", op, got, want)
		}
		d.Close()
	}
}
