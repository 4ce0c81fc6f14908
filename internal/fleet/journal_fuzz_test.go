package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/snap"
)

// journalSeeds writes real journals the way the coordinator does — a log
// of every record type, a compacted log with a tail, and a log with a torn
// final frame — and returns their bytes.
func journalSeeds(f *testing.F) [][]byte {
	f.Helper()
	build := func(write func(j *journal)) []byte {
		dir := f.TempDir()
		j, err := openJournal(dir)
		if err != nil {
			f.Fatal(err)
		}
		write(j)
		j.close()
		data, err := os.ReadFile(filepath.Join(dir, journalFileName))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	appendAll := func(j *journal, recs ...func(*snap.Writer)) {
		for _, enc := range recs {
			if err := j.append(enc); err != nil {
				f.Fatal(err)
			}
		}
	}
	every := build(func(j *journal) {
		appendAll(j, epochRec(3), workerUpRec("w1", "http://127.0.0.1:1"),
			placeRec("aa11", "w1", []byte(`{"engines":["hb"]}`)), placeRec("bb22", "w1", nil),
			moveRec("bb22", "w2"), finishRec("cc33", []byte(`{"races":1}`)),
			dropRec("aa11"), workerDownRec("w1"))
	})
	compacted := build(func(j *journal) {
		appendAll(j, placeRec("aa11", "w1", []byte("hdr")), placeRec("aa11", "w2", []byte("hdr")))
		st := newJournalState()
		st.epoch = 7
		st.workers["w1"] = "http://127.0.0.1:1"
		st.placements["aa11"] = &journalPlacement{worker: "w2", header: []byte("hdr")}
		st.finished["cc33"] = []byte(`{"races":2}`)
		if err := j.compact(func() *journalState { return st }); err != nil {
			f.Fatal(err)
		}
		appendAll(j, placeRec("bb22", "w1", nil))
	})
	return [][]byte{every, compacted, every[:len(every)-6], nil}
}

// FuzzJournalReplay feeds arbitrary bytes in as journal.log. Replay must
// never panic and never allocate far beyond the input; whenever it reports
// ok, the file has been cut to a frame boundary and replaying it again
// yields the same state.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, records, ok, err := replayJournal(dir)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20+64*uint64(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d bytes", len(data), alloc)
		}
		for id, pl := range st.placements {
			if len(id) > maxJournalID || len(pl.worker) > maxJournalID || len(pl.header) > maxJournalBlob {
				t.Fatalf("placement %q exceeds the decode bounds", id)
			}
		}
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("replay reported ok with error %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("replay left %d bytes that are not a prefix of the input", len(kept))
		}
		if _, err := decodeAll(kept); err != nil {
			t.Fatalf("replay kept a log that does not decode frame by frame: %v", err)
		}
		again, records2, ok2, err2 := replayJournal(dir)
		if !ok2 || err2 != nil || records2 != records || !reflect.DeepEqual(st, again) {
			t.Fatalf("second replay differs: ok=%v err=%v records %d vs %d", ok2, err2, records2, records)
		}
	})
}
