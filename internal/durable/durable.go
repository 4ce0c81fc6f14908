// Package durable is the one place raced writes files that must survive a
// crash: worker session checkpoints and the report store, pressure-parked
// sessions, the coordinator's spilled checkpoint blobs and its compacted
// journal. Every write goes to a temp file in the target's directory, is
// fsynced, renamed over the target, and the directory is fsynced, so after
// a crash or power loss the target holds either the old bytes or the new
// ones — never a torn mix, and never an acknowledged rename that vanished.
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tempPrefix names every in-flight temp file. A process killed between
// creating one and renaming it leaves it behind; SweepTemp removes such
// leftovers when the directory is next opened.
const tempPrefix = ".tmp-"

// WriteFile atomically replaces path with whatever write produces. On any
// error the temp file is removed and path is left untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename succeeded
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// Bytes returns a write function for WriteFile and Dir.Put that writes b.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// SyncDir fsyncs a directory, making a create, rename or remove inside it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SweepTemp removes temp files a killed writer left in dir. Call it only
// when no WriteFile into dir can be in flight, i.e. when opening the
// directory at startup.
func SweepTemp(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// ErrBadID rejects an id that is not a plain file name.
var ErrBadID = errors.New("durable: id must be a non-empty name without path separators or dots")

// Dir is a directory of files keyed by id, one file <id><suffix> each,
// every one written with WriteFile.
type Dir struct {
	path   string
	suffix string
}

// OpenDir creates path if needed, sweeps temp files left by a killed
// writer, and returns the directory handle.
func OpenDir(path, suffix string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	if err := SweepTemp(path); err != nil {
		return nil, err
	}
	return &Dir{path: path, suffix: suffix}, nil
}

func validID(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/\\.")
}

func (d *Dir) file(id string) (string, error) {
	if !validID(id) {
		return "", ErrBadID
	}
	return filepath.Join(d.path, id+d.suffix), nil
}

// Put atomically replaces id's file with whatever write produces.
func (d *Dir) Put(id string, write func(io.Writer) error) error {
	path, err := d.file(id)
	if err != nil {
		return err
	}
	return WriteFile(path, write)
}

// Get reads id's file. A missing file is an error satisfying
// errors.Is(err, fs.ErrNotExist).
func (d *Dir) Get(id string) ([]byte, error) {
	path, err := d.file(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// Remove deletes id's file. Removing a missing file is an error satisfying
// errors.Is(err, fs.ErrNotExist).
func (d *Dir) Remove(id string) error {
	path, err := d.file(id)
	if err != nil {
		return err
	}
	return os.Remove(path)
}

// List returns the ids of every file in the directory, in name order.
func (d *Dir) List() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if id, ok := strings.CutSuffix(e.Name(), d.suffix); ok && !e.IsDir() && validID(id) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}
