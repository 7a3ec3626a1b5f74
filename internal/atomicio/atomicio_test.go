package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeBytes drives WriteFile with a fixed payload.
func writeBytes(path, data string) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	})
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := writeBytes(path, "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite replaces content atomically.
	if err := writeBytes(path, "world"); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "world" {
		t.Fatalf("after overwrite: %q", got)
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileErrorPreservesOld: a failing write callback must leave the
// previous file version intact and remove its temp file.
func TestWriteFileErrorPreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := writeBytes(path, "v1"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v1" {
		t.Fatalf("old content clobbered: %q", got)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileBadDir(t *testing.T) {
	err := writeBytes(filepath.Join(t.TempDir(), "missing", "out"), "x")
	if err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" && filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}
}

// TestJSONRoundTrip pins the codec the state files share: compact or
// indented encoder output with a trailing newline, strict decode, and a
// missing file surfacing as os.ErrNotExist.
func TestJSONRoundTrip(t *testing.T) {
	type doc struct {
		A int
		B []string
	}
	dir := t.TempDir()
	want := doc{A: 7, B: []string{"x", "y"}}
	for _, tc := range []struct{ indent, bytes string }{
		{"", "{\"A\":7,\"B\":[\"x\",\"y\"]}\n"},
		{" ", "{\n \"A\": 7,\n \"B\": [\n  \"x\",\n  \"y\"\n ]\n}\n"},
	} {
		path := filepath.Join(dir, "doc.json")
		if err := WriteJSON(path, want, tc.indent); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); string(raw) != tc.bytes {
			t.Errorf("indent %q wrote %q, want %q", tc.indent, raw, tc.bytes)
		}
		var got doc
		if err := ReadJSON(path, &got); err != nil || got.A != want.A || len(got.B) != 2 {
			t.Errorf("indent %q read back %+v, %v", tc.indent, got, err)
		}
	}
	assertNoTempFiles(t, dir)
	var d doc
	if err := ReadJSON(filepath.Join(dir, "absent.json"), &d); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := writeBytes(bad, "{\"A\":1} trailing"); err != nil {
		t.Fatal(err)
	}
	if err := ReadJSON(bad, &d); err == nil {
		t.Error("trailing garbage decoded")
	}
}
