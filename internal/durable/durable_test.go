package durable

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tempFiles lists the in-flight temp files left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, tempPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := WriteFile(path, Bytes([]byte("old"))); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, Bytes([]byte("new"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content = %q, want new", got)
	}

	// A failing writer leaves the previous content and no temp file.
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content after failed write = %q, want new", got)
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestDirPutGetListRemove(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "sub", "blobs"), ".blob")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"bb22", "aa11"} {
		if err := d.Put(id, Bytes([]byte("data-"+id))); err != nil {
			t.Fatalf("Put(%s): %v", id, err)
		}
	}
	if got, err := d.Get("aa11"); err != nil || !bytes.Equal(got, []byte("data-aa11")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Stray files that are not <id><suffix> are not ids.
	os.WriteFile(filepath.Join(d.path, "notes.txt"), nil, 0o644)
	os.Mkdir(filepath.Join(d.path, "x.blob"), 0o755)
	if ids, err := d.List(); err != nil || !reflect.DeepEqual(ids, []string{"aa11", "bb22"}) {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if err := d.Remove("aa11"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("aa11"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get after Remove: %v, want not-exist", err)
	}
	if err := d.Remove("aa11"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second Remove: %v, want not-exist", err)
	}
}

func TestDirRejectsPathIDs(t *testing.T) {
	d, err := OpenDir(t.TempDir(), ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "../x", "a/b", `a\b`, "a.b"} {
		if err := d.Put(id, Bytes(nil)); !errors.Is(err, ErrBadID) {
			t.Errorf("Put(%q) = %v, want ErrBadID", id, err)
		}
		if _, err := d.Get(id); !errors.Is(err, ErrBadID) {
			t.Errorf("Get(%q) = %v, want ErrBadID", id, err)
		}
		if err := d.Remove(id); !errors.Is(err, ErrBadID) {
			t.Errorf("Remove(%q) = %v, want ErrBadID", id, err)
		}
	}
}

// TestOpenDirSweepsTempFiles: a writer killed between creating its temp
// file and renaming it leaves the temp behind; reopening removes it and
// keeps every real file.
func TestOpenDirSweepsTempFiles(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path, ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("aa11", Bytes([]byte("keep"))); err != nil {
		t.Fatal(err)
	}
	stray, err := os.CreateTemp(path, tempPrefix+"*")
	if err != nil {
		t.Fatal(err)
	}
	stray.Close()
	if _, err := OpenDir(path, ".ckpt"); err != nil {
		t.Fatal(err)
	}
	if left := tempFiles(t, path); len(left) != 0 {
		t.Fatalf("temp files survived reopen: %v", left)
	}
	if got, _ := d.Get("aa11"); string(got) != "keep" {
		t.Fatalf("real file = %q, want keep", got)
	}
}
