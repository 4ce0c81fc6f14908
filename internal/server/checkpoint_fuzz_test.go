package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/traceio"
)

// checkpointSeeds checkpoints real sessions — one per engine set, one of
// them mid-stream — through a server's API and returns the files it wrote.
func checkpointSeeds(f *testing.F) [][]byte {
	f.Helper()
	dir := f.TempDir()
	s := New(durableConfig(dir))
	defer s.Close(context.Background())
	do := func(method, path string, body []byte, want int) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			f.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	tr := gen.Random(gen.RandomConfig{Seed: 5, Events: 3000, Threads: 3, Locks: 2, Vars: 4})
	var hdr, body bytes.Buffer
	if err := traceio.WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		f.Fatal(err)
	}
	if err := traceio.EncodeEvents(&body, tr.Events[:2000]); err != nil {
		f.Fatal(err)
	}
	var ids []string
	for _, engines := range []string{"wcp", "wcp,hb"} {
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(do("POST", "/sessions?engines="+engines, hdr.Bytes(), http.StatusCreated), &created); err != nil {
			f.Fatal(err)
		}
		do("POST", "/sessions/"+created.ID+"/chunks", body.Bytes(), http.StatusOK)
		ids = append(ids, created.ID)
	}
	do("POST", "/checkpoint", nil, http.StatusOK)
	var seeds [][]byte
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, id+ckptSuffix))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data, data[:len(data)/2])
	}
	return seeds
}

// FuzzCheckpointRestore feeds arbitrary bytes to restoreSession, the
// decoder behind checkpoint restore, unparking and POST /sessions/restore.
// It must never panic; a checkpoint it accepts re-serializes to bytes that
// restore to the same serialization again.
func FuzzCheckpointRestore(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	now := time.Unix(1700000000, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := restoreSession(bytes.NewReader(data), now)
		if err != nil {
			return
		}
		defer sess.abort()
		var first, second bytes.Buffer
		if err := sess.snapshotTo(&first); err != nil {
			t.Fatalf("restored session does not snapshot: %v", err)
		}
		again, err := restoreSession(bytes.NewReader(first.Bytes()), now)
		if err != nil {
			t.Fatalf("re-serialized checkpoint does not restore: %v", err)
		}
		defer again.abort()
		if err := again.snapshotTo(&second); err != nil {
			t.Fatalf("second snapshot: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot of a restored checkpoint is not stable: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
