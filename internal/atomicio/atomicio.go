// Package atomicio provides crash-safe file writes: content is streamed to
// a temporary file in the destination directory and atomically renamed over
// the target only after the write (and an fsync) succeeds. A reader never
// observes a half-written file, and an interrupted writer leaves the
// previous version of the target intact — the property the bench sweep's
// resume manifest, worker snapshots, and every CSV/JSON/chart export rely
// on. WriteJSON and ReadJSON are the one codec of the JSON state files
// among those.
package atomicio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write.
// The temp file lives in path's directory so the final rename cannot cross
// filesystems. On any error the temp file is removed and the target is left
// untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: rename over %s: %w", path, err)
	}
	return nil
}

// WriteJSON atomically replaces path with v's JSON encoding, one value and
// a trailing newline as json.Encoder writes it. A non-empty indent
// pretty-prints with that string per nesting level.
func WriteJSON(path string, v any, indent string) error {
	return WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", indent)
		return enc.Encode(v)
	})
}

// ReadJSON decodes the JSON file at path into v. A missing file comes back
// as the bare os error, so errors.Is(err, os.ErrNotExist) holds.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}
