package dserve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"graphpulse/internal/stream"
)

// The durable mutation WAL: one directory per graph holding JSON-lines
// segments of epoch-tagged mutation records (stream.Change). A worker
// appends (and fsyncs) every applied mutation epoch before the serve layer
// acknowledges it, so a crash between snapshot ticks loses nothing — on
// restart the worker replays the log tail past its last snapshot
// (Worker.Start), and the anti-entropy loop ships a laggard replica
// the WAL suffix it missed. Segments rotate at walSegmentBytes and are
// truncated once a snapshot covers them (TruncateThrough), bounding
// retention at roughly one snapshot interval of mutations.

// ErrWALTruncated is returned by TailAfter when the log no longer covers
// the requested suffix contiguously: the covering segments were truncated
// after a snapshot, the epoch sequence has a hole (a snapshot adoption
// jumped past the log), or the suffix exceeds the shippable cap. The
// caller falls back to a full snapshot transfer.
var ErrWALTruncated = errors.New("dserve: wal does not cover requested suffix")

// maxWALTail caps how many records TailAfter returns; past it a snapshot
// transfer is cheaper than replaying the log, so the tail is reported as
// truncated.
const maxWALTail = 65536

// walSegment is one on-disk segment and the epoch range it holds.
type walSegment struct {
	path  string
	first uint64
	last  uint64
}

// WAL is one graph's write-ahead log. All methods are concurrency-safe;
// appends fsync before returning (the durability point the mutation hook
// relies on).
type WAL struct {
	dir      string
	segBytes int64

	mu          sync.Mutex
	segs        []walSegment
	f           *os.File // active segment (last of segs), nil until first append
	activeSize  int64
	lastEpoch   uint64
	tailDropped int
}

// openWAL opens (or creates) the log directory, scans existing segments,
// and repairs a torn tail: a final record cut mid-write by a crash is
// dropped (counted in TailDropped), everything before it is kept.
func openWAL(dir string, segBytes int64) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	w := &WAL{dir: dir, segBytes: segBytes}
	for i, path := range paths {
		recs, goodBytes, torn, err := scanSegment(path, w.lastEpoch)
		if err != nil {
			return nil, err
		}
		if torn {
			// Crash mid-append (or corruption): keep the good prefix of this
			// segment and drop every later segment — the log must stay a
			// contiguous prefix of the mutation sequence.
			w.tailDropped++
			if err := os.Truncate(path, goodBytes); err != nil {
				return nil, fmt.Errorf("repair wal segment %s: %w", path, err)
			}
			for _, later := range paths[i+1:] {
				w.tailDropped++
				if err := os.Remove(later); err != nil {
					return nil, fmt.Errorf("drop wal segment %s: %w", later, err)
				}
			}
		}
		if len(recs) == 0 {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		} else {
			w.segs = append(w.segs, walSegment{
				path:  path,
				first: recs[0].Epoch,
				last:  recs[len(recs)-1].Epoch,
			})
			w.lastEpoch = recs[len(recs)-1].Epoch
		}
		if torn {
			break
		}
	}
	if n := len(w.segs); n > 0 {
		f, err := os.OpenFile(w.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		w.f = f
		w.activeSize = st.Size()
	}
	return w, nil
}

// scanSegment reads one segment's records, validating that epochs stay
// strictly increasing (continuing from prevEpoch). It returns the decoded
// records, the byte offset of the first bad line (== file size when the
// whole segment is good), and whether a torn/corrupt tail was found.
func scanSegment(path string, prevEpoch uint64) (recs []stream.Change, goodBytes int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return recs, goodBytes, false, nil
		}
		if err != nil && err != io.EOF {
			return nil, 0, false, err
		}
		var rec stream.Change
		bad := err == io.EOF || // final line without newline: cut mid-write
			json.Unmarshal(line, &rec) != nil ||
			rec.Epoch <= prevEpoch
		if bad {
			return recs, goodBytes, true, nil
		}
		recs = append(recs, rec)
		prevEpoch = rec.Epoch
		goodBytes += int64(len(line))
	}
}

// Append durably logs one record: marshal, rotate the segment if the
// active one is full, write, fsync. A record at or below the last logged
// epoch is skipped (appended=false) — that makes the mutation hook safe
// to re-fire during replay. rotated reports that a new segment was
// started with a previous one retained.
func (w *WAL) Append(rec stream.Change) (appended, rotated bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.Epoch <= w.lastEpoch {
		return false, false, nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false, false, err
	}
	line = append(line, '\n')
	if w.f == nil || (w.activeSize > 0 && w.activeSize+int64(len(line)) > w.segBytes) {
		hadSegment := w.f != nil
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		path := filepath.Join(w.dir, fmt.Sprintf("%020d.wal", rec.Epoch))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err != nil {
			return false, false, err
		}
		w.f = f
		w.activeSize = 0
		w.segs = append(w.segs, walSegment{path: path, first: rec.Epoch, last: rec.Epoch})
		rotated = hadSegment
	}
	if _, err := w.f.Write(line); err != nil {
		return false, rotated, err
	}
	if err := w.f.Sync(); err != nil {
		return false, rotated, err
	}
	w.activeSize += int64(len(line))
	w.lastEpoch = rec.Epoch
	w.segs[len(w.segs)-1].last = rec.Epoch
	return true, rotated, nil
}

// TailDropped reports how many torn or corrupt tail pieces were dropped
// when the log was opened.
func (w *WAL) TailDropped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tailDropped
}

// TailAfter returns every logged record with epoch > after, verifying the
// suffix is contiguous from after+1 through the last logged epoch. A
// suffix the log cannot produce — truncated coverage, an epoch hole, or
// more than maxWALTail records — fails with ErrWALTruncated, telling the
// caller to ship a snapshot instead.
func (w *WAL) TailAfter(after uint64) ([]stream.Change, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if after >= w.lastEpoch {
		return nil, nil
	}
	if len(w.segs) == 0 || w.segs[0].first > after+1 {
		return nil, fmt.Errorf("%w: after=%d, earliest retained=%d",
			ErrWALTruncated, after, w.earliestLocked())
	}
	if w.lastEpoch-after > maxWALTail {
		return nil, fmt.Errorf("%w: suffix of %d records exceeds cap %d",
			ErrWALTruncated, w.lastEpoch-after, maxWALTail)
	}
	var out []stream.Change
	expect := after + 1
	for _, seg := range w.segs {
		if seg.last < expect {
			continue
		}
		recs, _, _, err := scanSegment(seg.path, 0)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if rec.Epoch <= after {
				continue
			}
			if rec.Epoch != expect {
				return nil, fmt.Errorf("%w: hole at epoch %d (next logged %d)",
					ErrWALTruncated, expect, rec.Epoch)
			}
			out = append(out, rec)
			expect++
		}
	}
	return out, nil
}

func (w *WAL) earliestLocked() uint64 {
	if len(w.segs) == 0 {
		return 0
	}
	return w.segs[0].first
}

// TruncateThrough deletes every non-active segment entirely covered by a
// snapshot at the given epoch (segment.last <= epoch) and returns how
// many were removed. The active segment is always retained.
func (w *WAL) TruncateThrough(epoch uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	kept := w.segs[:0]
	for i, seg := range w.segs {
		if i < len(w.segs)-1 && seg.last <= epoch {
			if err := os.Remove(seg.path); err != nil {
				w.segs = append(kept, w.segs[i:]...)
				return removed, err
			}
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	w.segs = kept
	return removed, nil
}

// Close closes the active segment file. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
