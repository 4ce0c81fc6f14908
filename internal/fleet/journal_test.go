package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/snap"
)

func appendPlace(t *testing.T, j *journal, id, worker string, header []byte) {
	t.Helper()
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recPlace)
		w.String(id)
		w.String(worker)
		w.Bytes(header)
	}); err != nil {
		t.Fatalf("append place: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recEpoch)
		w.Uvarint(3)
	}); err != nil {
		t.Fatalf("append epoch: %v", err)
	}
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recWorkerUp)
		w.String("w1")
		w.String("http://127.0.0.1:1")
	}); err != nil {
		t.Fatalf("append worker: %v", err)
	}
	appendPlace(t, j, "aa11", "w1", []byte(`{"engines":["hb"]}`))
	appendPlace(t, j, "bb22", "w1", nil)
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recMove)
		w.String("bb22")
		w.String("w2")
	}); err != nil {
		t.Fatalf("append move: %v", err)
	}
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recFinish)
		w.String("cc33")
		w.Bytes([]byte(`{"races":1}`))
	}); err != nil {
		t.Fatalf("append finish: %v", err)
	}
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recDrop)
		w.String("aa11")
	}); err != nil {
		t.Fatalf("append drop: %v", err)
	}
	if err := j.append(func(w *snap.Writer) {
		w.Byte(recWorkerDown)
		w.String("w1")
	}); err != nil {
		t.Fatalf("append workerdown: %v", err)
	}
	j.close()

	st, records, ok, err := replayJournal(dir)
	if err != nil || !ok {
		t.Fatalf("replay: ok=%v err=%v", ok, err)
	}
	if records != 8 {
		t.Fatalf("replayed %d records, want 8", records)
	}
	if st.epoch != 3 {
		t.Fatalf("epoch = %d, want 3", st.epoch)
	}
	if len(st.workers) != 0 {
		t.Fatalf("workers = %v, want empty (w1 came and went)", st.workers)
	}
	if len(st.placements) != 1 || st.placements["bb22"] == nil {
		t.Fatalf("placements = %v, want only bb22", st.placements)
	}
	if st.placements["bb22"].worker != "w2" {
		t.Fatalf("bb22 on %q, want w2 after move", st.placements["bb22"].worker)
	}
	if !bytes.Equal(st.finished["cc33"], []byte(`{"races":1}`)) {
		t.Fatalf("finished cc33 = %q", st.finished["cc33"])
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.close()
	for i := 0; i < 50; i++ {
		appendPlace(t, j, "aa11", "w1", []byte("hdr"))
	}
	before, _ := os.Stat(filepath.Join(dir, journalFileName))

	st := newJournalState()
	st.epoch = 7
	st.workers["w1"] = "http://127.0.0.1:1"
	st.placements["aa11"] = &journalPlacement{worker: "w1", header: []byte("hdr")}
	genBefore := j.gen
	if err := j.compact(func() *journalState { return st }); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if j.gen != genBefore+1 {
		t.Fatalf("gen = %d, want %d", j.gen, genBefore+1)
	}
	after, _ := os.Stat(filepath.Join(dir, journalFileName))
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	if n := j.appendsSinceCompact(); n != 0 {
		t.Fatalf("appends after compact = %d", n)
	}

	// Appends after compaction land in the new file and replay on top of
	// the snapshot.
	appendPlace(t, j, "bb22", "w1", nil)
	got, _, ok, err := replayJournal(dir)
	if err != nil || !ok {
		t.Fatalf("replay: ok=%v err=%v", ok, err)
	}
	if got.epoch != 7 || len(got.placements) != 2 || got.workers["w1"] == "" {
		t.Fatalf("replayed state = epoch %d placements %v workers %v",
			got.epoch, got.placements, got.workers)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendPlace(t, j, "aa11", "w1", []byte("hdr"))
	appendPlace(t, j, "bb22", "w1", []byte("hdr"))
	j.close()

	// Simulate a crash mid-append: write a frame header that promises more
	// payload than exists.
	path := filepath.Join(dir, journalFileName)
	full, _ := os.Stat(path)
	var frame bytes.Buffer
	w := snap.NewWriter(&frame)
	w.Byte(recPlace)
	w.String("cc33")
	w.String("w1")
	w.Bytes([]byte("hdr"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	torn := frame.Bytes()[:frame.Len()-6] // cut mid-payload
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()

	st, records, ok, err := replayJournal(dir)
	if err != nil || !ok {
		t.Fatalf("torn tail should replay clean: ok=%v err=%v", ok, err)
	}
	if records != 2 || len(st.placements) != 2 {
		t.Fatalf("records=%d placements=%v, want the 2 whole frames", records, st.placements)
	}
	// The torn bytes must have been cut so future appends are readable.
	if cur, _ := os.Stat(path); cur.Size() != full.Size() {
		t.Fatalf("torn tail not truncated: size %d, want %d", cur.Size(), full.Size())
	}
}

func TestJournalCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendPlace(t, j, "aa11", "w1", []byte("hdr"))
	appendPlace(t, j, "bb22", "w1", []byte("hdr"))
	j.close()

	// Flip a byte inside the FIRST frame's payload: mid-log corruption,
	// not a torn tail — replay must report it so the coordinator falls
	// back to reconstruction.
	path := filepath.Join(dir, journalFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := replayJournal(dir)
	if ok || err == nil {
		t.Fatalf("corruption not detected: ok=%v err=%v", ok, err)
	}
	if err := quarantineJournal(dir); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalCorruptFn)); err != nil {
		t.Fatalf("no quarantined copy: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt journal still in place: %v", err)
	}
}

func TestJournalBlobs(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.close()
	if err := j.blobs.Put("aa11", durable.Bytes([]byte("checkpoint"))); err != nil {
		t.Fatalf("writeBlob: %v", err)
	}
	if got, _ := j.blobs.Get("aa11"); !bytes.Equal(got, []byte("checkpoint")) {
		t.Fatalf("readBlob = %q", got)
	}
	if ids, _ := j.blobs.List(); len(ids) != 1 || ids[0] != "aa11" {
		t.Fatalf("listBlobs = %v", ids)
	}
	j.blobs.Remove("aa11")
	if got, _ := j.blobs.Get("aa11"); got != nil {
		t.Fatalf("blob survived drop: %q", got)
	}
}

func TestJournalReadFromTail(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.close()
	appendPlace(t, j, "aa11", "w1", []byte("hdr"))
	data, gen, next, err := j.readFrom(0, 0) // stale gen 0 -> full resend
	if err != nil {
		t.Fatalf("readFrom: %v", err)
	}
	if len(data) == 0 || next != int64(len(data)) {
		t.Fatalf("readFrom: %d bytes, next=%d", len(data), next)
	}
	// Tail bytes decode as frames.
	st := newJournalState()
	r, err := snap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode tail: %v", err)
	}
	if err := st.applyRecord(r); err != nil {
		t.Fatalf("apply tail: %v", err)
	}
	if st.placements["aa11"] == nil {
		t.Fatalf("tail did not carry the placement")
	}
	// Caught up: nothing more.
	data2, gen2, next2, err := j.readFrom(gen, next)
	if err != nil || len(data2) != 0 || gen2 != gen || next2 != next {
		t.Fatalf("caught-up readFrom: data=%d gen=%d next=%d err=%v", len(data2), gen2, next2, err)
	}
	// Compaction bumps gen; a reader at the old gen gets a full resend.
	if err := j.compact(func() *journalState { return st }); err != nil {
		t.Fatalf("compact: %v", err)
	}
	data3, gen3, _, err := j.readFrom(gen, next)
	if err != nil || gen3 != gen+1 || len(data3) == 0 {
		t.Fatalf("post-compact readFrom: data=%d gen=%d err=%v", len(data3), gen3, err)
	}
}

// TestJournalReadFromDuringCompaction races a tailing reader against
// appends and compactions: every payload readFrom hands out must decode
// frame by frame to a clean EOF, never a short or zero-padded read.
func TestJournalReadFromDuringCompaction(t *testing.T) {
	j, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.close()
	st := newJournalState()
	hdr := bytes.Repeat([]byte("h"), 64)
	for i := 0; i < 8; i++ {
		st.placements[fmt.Sprintf("aa%02d", i)] = &journalPlacement{worker: "w1", header: hdr}
	}

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 32; k++ {
				if err := j.append(placeRec(fmt.Sprintf("bb%02d", k), "w2", hdr)); err != nil {
					writerErr <- err
					return
				}
			}
			if err := j.compact(func() *journalState { return st }); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	// Several tailing readers, more than the CPUs, so one is often
	// descheduled between sampling the size and opening the file.
	var wg sync.WaitGroup
	readerErr := make(chan error, 8)
	deadline := time.Now().Add(500 * time.Millisecond)
	for rdr := 0; rdr < 8; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var gen uint64
			var off int64
			for i := 0; time.Now().Before(deadline); i++ {
				data, curGen, next, err := j.readFrom(gen, off)
				if err != nil {
					readerErr <- fmt.Errorf("readFrom(%d, %d): %w", gen, off, err)
					return
				}
				if _, err := decodeAll(data); err != nil {
					readerErr <- fmt.Errorf("payload of %d bytes (gen %d, from %d): %w", len(data), curGen, off, err)
					return
				}
				gen, off = curGen, next
				if i%2 == 0 {
					gen, off = 0, 0 // a fresh standby: full resend
				}
			}
		}()
	}
	wg.Wait()
	close(readerErr)
	for err := range readerErr {
		t.Error(err)
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// decodeAll applies every frame in data to a fresh state, failing on
// anything but a clean end after the last whole frame.
func decodeAll(data []byte) (*journalState, error) {
	st := newJournalState()
	rd := bytes.NewReader(data)
	for {
		r, err := snap.NewReader(rd)
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, err
		}
		if err := st.applyRecord(r); err != nil {
			return nil, err
		}
	}
}

// TestCoordinatorRestartSweepsTempFiles: temp files a killed compaction or
// blob spill left in the journal directory are removed when the next
// coordinator opens it, and the journaled placement and its blob come back.
func TestCoordinatorRestartSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := CoordinatorConfig{JournalDir: dir, PullEvery: -1, HeartbeatTimeout: time.Minute}
	c1 := NewCoordinator(cfg)
	c1.record("worker", workerUpRec("w1", "http://127.0.0.1:1"))
	c1.record("place", placeRec("aa11", "w1", []byte("hdr")))
	if err := c1.journal.blobs.Put("aa11", durable.Bytes([]byte("checkpoint"))); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	strays := []string{filepath.Join(dir, ".tmp-123"), filepath.Join(dir, journalBlobsDir, ".tmp-456")}
	for _, p := range strays {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c2 := NewCoordinator(cfg)
	defer c2.Close(context.Background())
	for _, p := range strays {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stray temp file %s survived the restart: %v", p, err)
		}
	}
	if got := c2.Placements()["aa11"]; got != "w1" {
		t.Fatalf("placement aa11 on %q after restart, want w1", got)
	}
	c2.mu.Lock()
	blob := c2.placements["aa11"].blob
	c2.mu.Unlock()
	if !bytes.Equal(blob, []byte("checkpoint")) {
		t.Fatalf("blob after restart = %q, want the spilled checkpoint", blob)
	}
}

// TestJournalRetiredSnapshotFrame: record type 8 was the whole-state
// snapshot older compactions wrote. It is reserved, so a journal holding
// one replays as corrupt and the coordinator takes the quarantine and
// reconstruction path.
func TestJournalRetiredSnapshotFrame(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := j.append(func(w *snap.Writer) {
		w.Byte(8)
		w.Uvarint(3) // epoch, then empty worker/placement/finished tables
		w.Uvarint(0)
		w.Uvarint(0)
		w.Uvarint(0)
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.close()
	if _, _, ok, err := replayJournal(dir); ok || err == nil {
		t.Fatalf("type-8 frame replayed: ok=%v err=%v", ok, err)
	}
}

// TestCompactionKeepsConcurrentAppends races session placements and drops
// against repeated journal compactions. Each mutation is made under c.mu
// and journaled after c.mu is released, as the session handlers do. After
// every compaction the test replays the journal and checks it against the
// records already acknowledged: a compaction that captured the state before
// taking the journal lock would replace a log holding an append whose
// mutation the capture missed, so the replay would lack an acknowledged
// placement or still hold an acknowledged drop (until a later compaction
// happened to capture it again).
func TestCompactionKeepsConcurrentAppends(t *testing.T) {
	cfg := CoordinatorConfig{JournalDir: t.TempDir(), PullEvery: -1,
		HeartbeatTimeout: time.Minute, CompactEvery: 1 << 30}
	c := NewCoordinator(cfg)
	defer c.Close(context.Background())
	const placers, perPlacer = 4, 150
	var ackMu sync.Mutex
	acked := map[string]bool{} // id -> its drop was acknowledged
	var wg sync.WaitGroup
	defer wg.Wait() // before the Close: a failed check leaves placers running
	for p := 0; p < placers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPlacer; i++ {
				id := fmt.Sprintf("s%d-%03d", p, i)
				c.mu.Lock()
				c.placements[id] = &placement{id: id, worker: "w1"}
				c.mu.Unlock()
				c.record("place", placeRec(id, "w1", nil))
				ackMu.Lock()
				acked[id] = false
				ackMu.Unlock()
				if i%2 == 1 {
					c.dropPlacement(id)
					ackMu.Lock()
					acked[id] = true
					ackMu.Unlock()
				}
			}
		}()
	}
	placed := make(chan struct{})
	go func() { wg.Wait(); close(placed) }()
	compactions := 0
	for finished := false; !finished; compactions++ {
		select {
		case <-placed:
			finished = true
		default:
		}
		if err := c.journal.compact(c.snapshotState); err != nil {
			t.Fatalf("compact: %v", err)
		}
		ackMu.Lock()
		snapshot := maps.Clone(acked)
		ackMu.Unlock()
		data, _, _, err := c.journal.readFrom(0, 0)
		if err != nil {
			t.Fatalf("readFrom: %v", err)
		}
		st, err := decodeAll(data)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		for id, dropped := range snapshot {
			_, present := st.placements[id]
			// Odd ids may be dropped after the snapshot; only an
			// acknowledged drop pins their absence.
			if dropped && present {
				t.Fatalf("after compaction %d the journal resurrects dropped placement %s", compactions, id)
			}
			if !present && id[len(id)-1]%2 == 0 {
				t.Fatalf("after compaction %d the journal lacks acknowledged placement %s", compactions, id)
			}
		}
	}
	if n := c.journalErrors.Value(); n != 0 {
		t.Fatalf("%d journal errors", n)
	}
	t.Logf("%d compactions", compactions)
}
