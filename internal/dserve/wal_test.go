package dserve

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/stream"
)

// walRec builds a small test record at the given epoch.
func walRec(epoch uint64) stream.Change {
	return stream.Change{
		Epoch: epoch,
		Added: []graph.Edge{{Src: uint32(epoch), Dst: uint32(epoch + 1), Weight: 0.5}},
	}
}

// lastEpoch reads the newest logged epoch (0 when the log is empty).
func lastEpoch(w *WAL) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastEpoch
}

// mustAppend appends and fails the test on error or an unexpected skip.
func mustAppend(t *testing.T, w *WAL, epoch uint64) {
	t.Helper()
	appended, _, err := w.Append(walRec(epoch))
	if err != nil {
		t.Fatalf("append epoch %d: %v", epoch, err)
	}
	if !appended {
		t.Fatalf("append epoch %d skipped", epoch)
	}
}

// TestWALAppendReopenTail pins the core durability contract: appends
// survive a close/reopen, the tail past any epoch comes back in order,
// and epoch-duplicate appends (the re-fired hook during replay) are
// skipped.
func TestWALAppendReopenTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 5; e++ {
		mustAppend(t, w, e)
	}
	// Re-firing an already-logged epoch is a no-op, not an error.
	if appended, _, err := w.Append(walRec(3)); err != nil || appended {
		t.Fatalf("duplicate epoch append = (%v, %v), want skip", appended, err)
	}
	if lastEpoch(w) != 5 {
		t.Fatalf("last epoch = %d, want 5", lastEpoch(w))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := openWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lastEpoch(w2) != 5 || w2.TailDropped() != 0 {
		t.Fatalf("reopened last epoch=%d TailDropped=%d, want 5, 0", lastEpoch(w2), w2.TailDropped())
	}
	recs, err := w2.TailAfter(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("TailAfter(2) returned %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(3 + i); rec.Epoch != want {
			t.Fatalf("tail[%d].Epoch = %d, want %d", i, rec.Epoch, want)
		}
	}
	// Appends continue past the reopened tail.
	mustAppend(t, w2, 6)
	if recs, err := w2.TailAfter(5); err != nil || len(recs) != 1 {
		t.Fatalf("TailAfter(5) after reopen-append = (%d records, %v), want 1", len(recs), err)
	}
	// A caught-up reader gets an empty tail, not an error.
	if recs, err := w2.TailAfter(6); err != nil || recs != nil {
		t.Fatalf("TailAfter(at head) = (%v, %v), want (nil, nil)", recs, err)
	}
}

// TestWALRotationAndTruncate drives segment rotation with a tiny segment
// cap and verifies TruncateThrough retires only snapshot-covered,
// non-active segments — and that TailAfter reports the missing prefix as
// truncated afterwards.
func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 64) // a record is ~100 bytes: one record per segment
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rotations := 0
	for e := uint64(1); e <= 4; e++ {
		appended, rotated, err := w.Append(walRec(e))
		if err != nil || !appended {
			t.Fatalf("append epoch %d = (%v, %v)", e, appended, err)
		}
		if rotated {
			rotations++
		}
	}
	if rotations != 3 {
		t.Fatalf("rotations = %d, want 3 (one record per 64-byte segment)", rotations)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 4 {
		t.Fatalf("%d segments on disk, want 4", len(segs))
	}

	// A snapshot at epoch 2 retires segments 1 and 2; the rest stay.
	removed, err := w.TruncateThrough(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("TruncateThrough(2) removed %d, want 2", removed)
	}
	if recs, err := w.TailAfter(2); err != nil || len(recs) != 2 {
		t.Fatalf("TailAfter(2) post-truncate = (%d records, %v), want 2 intact", len(recs), err)
	}
	if _, err := w.TailAfter(0); !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("TailAfter(0) post-truncate err = %v, want ErrWALTruncated", err)
	}

	// The active segment is never removed, even when covered.
	if removed, err := w.TruncateThrough(100); err != nil || removed != 1 {
		t.Fatalf("TruncateThrough(100) = (%d, %v), want only the non-active segment gone", removed, err)
	}
	if lastEpoch(w) != 4 {
		t.Fatalf("last epoch after truncate = %d, want 4", lastEpoch(w))
	}
}

// TestWALTornTailRepair crashes mid-append by hand: a half-written final
// line (and any segments after it) are dropped at open, the good prefix
// survives, and appends resume from the repaired tail.
func TestWALTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		mustAppend(t, w, e)
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	// Tear the tail: append half a record with no trailing newline.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"epoch":4,"ts":12`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := openWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.TailDropped() != 1 {
		t.Fatalf("TailDropped = %d, want 1", w2.TailDropped())
	}
	if lastEpoch(w2) != 3 {
		t.Fatalf("last epoch after repair = %d, want 3", lastEpoch(w2))
	}
	recs, err := w2.TailAfter(0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("TailAfter(0) after repair = (%d records, %v), want the 3 good records", len(recs), err)
	}
	// The torn epoch can be re-appended cleanly.
	mustAppend(t, w2, 4)
	if recs, err := w2.TailAfter(3); err != nil || len(recs) != 1 || recs[0].Epoch != 4 {
		t.Fatalf("re-append after repair: tail = (%v, %v)", recs, err)
	}
}

// TestWALTailCap pins the snapshot-is-cheaper cutoff: a suffix longer
// than maxWALTail reports ErrWALTruncated instead of shipping it.
func TestWALTailCap(t *testing.T) {
	w := &WAL{lastEpoch: maxWALTail + 2, segs: []walSegment{{first: 1, last: maxWALTail + 2}}}
	if _, err := w.TailAfter(0); !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("oversized tail err = %v, want ErrWALTruncated", err)
	}
}

// TestWALFormatUnchanged pins the on-disk record shape, read-old and
// write-new: a segment holding a literal line written before stream.Change
// became the WAL record (it carries an ingest time, "ts", which decoding
// ignores) and then a line in the current format replays both records in
// order, and appending them to a fresh log writes the current bytes, which
// have no "ts".
func TestWALFormatUnchanged(t *testing.T) {
	const (
		oldLine = `{"epoch":3,"ts":1767225600000000007,"added":[{"src":1,"dst":2,"weight":0.5}],"removed":[{"src":4,"dst":5}]}` + "\n"
		newLine = `{"epoch":4,"added":[{"src":2,"dst":3,"weight":0.25}]}` + "\n"
		written = `{"epoch":3,"added":[{"src":1,"dst":2,"weight":0.5}],"removed":[{"src":4,"dst":5}]}` + "\n" + newLine
	)
	dir := t.TempDir()
	seg := filepath.Join(dir, "00000000000000000003.wal")
	if err := os.WriteFile(seg, []byte(oldLine+newLine), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs, err := w.TailAfter(2)
	if err != nil || len(recs) != 2 || w.TailDropped() != 0 {
		t.Fatalf("TailAfter(2) = (%v, %v), dropped %d; want the two literal records", recs, err, w.TailDropped())
	}
	want := []stream.Change{{
		Epoch:   3,
		Added:   []graph.Edge{{Src: 1, Dst: 2, Weight: 0.5}},
		Removed: []graph.Edge{{Src: 4, Dst: 5}},
	}, {
		Epoch: 4,
		Added: []graph.Edge{{Src: 2, Dst: 3, Weight: 0.25}},
	}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("decoded %+v, want %+v", recs, want)
	}

	w2, err := openWAL(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for _, rec := range recs {
		if _, _, err := w2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(w2.dir, filepath.Base(seg)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != written {
		t.Fatalf("re-encoded segment:\n%swant:\n%s", got, written)
	}
}
