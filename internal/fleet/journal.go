package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/snap"
)

// The coordinator's durable journal: an append-only log of placement and
// membership changes, one snap frame per record, living in
// <dir>/journal.log with pulled checkpoint blobs spilled beside it under
// <dir>/blobs/. Every record has set semantics (last write wins per key),
// so compaction simply rewrites the live state as the same records — one
// per epoch, worker, placement and cached finish — and replay needs no
// second format. The snap codec's CRC framing means a torn final write
// (power loss mid-append) surfaces as a decode error on the last frame,
// which replay treats as the end of the log rather than corruption of
// everything before it.
//
// Writes buffer the whole frame in memory and issue a single Write on an
// O_APPEND handle, so concurrent appenders can never interleave partial
// frames; a Sync per append makes each acknowledged record durable.

// Journal record types. New types must be added at the end; replay skips
// nothing, so an unknown type is corruption.
const (
	recEpoch      byte = 1 // coordinator epoch bump: epoch
	recPlace      byte = 2 // placement create/update: id, worker, create header
	recMove       byte = 3 // placement moved: id, new worker
	recDrop       byte = 4 // placement gone (finished/aborted/lost): id
	recFinish     byte = 5 // finished-reply cache entry: id, reply body
	recWorkerUp   byte = 6 // worker joined/re-registered: name, url
	recWorkerDown byte = 7 // worker left/died: name
	// Type 8 was a whole-state snapshot frame that older compactions
	// wrote. It is reserved, never reused: a journal holding one replays
	// as corrupt and takes the quarantine and reconstruction path.
)

// Decode bounds: a corrupt length field must not drive a huge allocation.
const (
	maxJournalID     = 256
	maxJournalURL    = 4096
	maxJournalBlob   = 1 << 28
	journalFileName  = "journal.log"
	journalBlobsDir  = "blobs"
	journalBlobExt   = ".blob"
	journalCorruptFn = "journal.corrupt"
)

// Record encoders, one per record type, shared by live appends and
// compaction.

func epochRec(epoch uint64) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recEpoch)
		w.Uvarint(epoch)
	}
}

func placeRec(id, worker string, header []byte) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recPlace)
		w.String(id)
		w.String(worker)
		w.Bytes(header)
	}
}

func moveRec(id, worker string) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recMove)
		w.String(id)
		w.String(worker)
	}
}

func dropRec(id string) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recDrop)
		w.String(id)
	}
}

func finishRec(id string, body []byte) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recFinish)
		w.String(id)
		w.Bytes(body)
	}
}

func workerUpRec(name, url string) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recWorkerUp)
		w.String(name)
		w.String(url)
	}
}

func workerDownRec(name string) func(*snap.Writer) {
	return func(w *snap.Writer) {
		w.Byte(recWorkerDown)
		w.String(name)
	}
}

// frame writes one record as a snap frame.
func frame(w io.Writer, enc func(*snap.Writer)) error {
	sw := snap.NewWriter(w)
	enc(sw)
	return sw.Close()
}

// journalState is the replayable coordinator state a journal encodes. It
// is the shared shape between startup replay, compaction, and the
// standby's shadow copy.
type journalState struct {
	epoch      uint64
	workers    map[string]string // name -> url
	placements map[string]*journalPlacement
	finished   map[string][]byte // id -> cached finish reply
}

type journalPlacement struct {
	worker string
	header []byte // original create body, for blobless re-create
}

func newJournalState() *journalState {
	return &journalState{
		workers:    make(map[string]string),
		placements: make(map[string]*journalPlacement),
		finished:   make(map[string][]byte),
	}
}

// applyRecord decodes one journal frame into st with set semantics.
func (st *journalState) applyRecord(r *snap.Reader) error {
	typ, err := r.Byte()
	if err != nil {
		return err
	}
	switch typ {
	case recEpoch:
		e, err := r.Uvarint()
		if err != nil {
			return err
		}
		if e > st.epoch {
			st.epoch = e
		}
	case recPlace:
		id, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		w, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		hdr, err := r.Bytes(maxJournalBlob)
		if err != nil {
			return err
		}
		st.placements[id] = &journalPlacement{worker: w, header: hdr}
	case recMove:
		id, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		w, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		if pl, ok := st.placements[id]; ok {
			pl.worker = w
		} else {
			st.placements[id] = &journalPlacement{worker: w}
		}
	case recDrop:
		id, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		delete(st.placements, id)
	case recFinish:
		id, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		body, err := r.Bytes(maxJournalBlob)
		if err != nil {
			return err
		}
		st.finished[id] = body
	case recWorkerUp:
		name, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		url, err := r.String(maxJournalURL)
		if err != nil {
			return err
		}
		st.workers[name] = url
	case recWorkerDown:
		name, err := r.String(maxJournalID)
		if err != nil {
			return err
		}
		delete(st.workers, name)
	default:
		return fmt.Errorf("journal: unknown record type %d", typ)
	}
	return r.Close()
}

// writeRecords writes st as the records that rebuild it on replay: what
// compaction leaves in the log.
func (st *journalState) writeRecords(w io.Writer) error {
	recs := []func(*snap.Writer){epochRec(st.epoch)}
	for name, url := range st.workers {
		recs = append(recs, workerUpRec(name, url))
	}
	for id, pl := range st.placements {
		recs = append(recs, placeRec(id, pl.worker, pl.header))
	}
	for id, body := range st.finished {
		recs = append(recs, finishRec(id, body))
	}
	for _, enc := range recs {
		if err := frame(w, enc); err != nil {
			return err
		}
	}
	return nil
}

// journal is the durable log handle. All methods are safe for concurrent
// use; the file mutex is independent of the coordinator's state mutex so
// appends never serialize proxying beyond the write itself.
type journal struct {
	dir   string
	blobs *durable.Dir // pulled checkpoint blobs, one file per session id

	mu      sync.Mutex
	f       *os.File
	size    int64  // committed bytes (whole frames only)
	gen     uint64 // bumped on every compaction; tailing readers resync on change
	appends int64  // records since the last compaction
}

// openJournal opens (creating if needed) the journal under dir, removing
// temp files a compaction or blob spill killed mid-write left behind.
func openJournal(dir string) (*journal, error) {
	blobs, err := durable.OpenDir(filepath.Join(dir, journalBlobsDir), journalBlobExt)
	if err != nil {
		return nil, err
	}
	if err := durable.SweepTemp(dir); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil {
		err = durable.SyncDir(dir) // make a fresh log's directory entry durable
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &journal{dir: dir, blobs: blobs, f: f, size: st.Size(), gen: 1}, nil
}

func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// append frames one record (built by enc) and durably appends it. The
// whole frame goes down in a single Write so a concurrent appender can
// never interleave, and Sync makes it crash-durable before we return.
func (j *journal) append(enc func(*snap.Writer)) error {
	var buf bytes.Buffer
	if err := frame(&buf, enc); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal closed")
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size += int64(buf.Len())
	j.appends++
	return nil
}

// appendsSinceCompact reports how many records have landed since the last
// compaction — the coordinator's monitor loop uses it to decide when to
// compact.
func (j *journal) appendsSinceCompact() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// compact rewrites the journal as the records of the state capture
// returns, bumping the generation so tailing standbys resync from the top.
// capture runs under the journal lock, so no append can land between the
// capture and the rename: an append that precedes the compaction follows
// its mutation, which the capture therefore sees, and every later append
// goes to the new log. The new log replaces the old one through
// durable.WriteFile: a crash at any point leaves either the old log or the
// new one.
func (j *journal) compact(capture func() *journalState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal closed")
	}
	var buf bytes.Buffer
	if err := capture().writeRecords(&buf); err != nil {
		return err
	}
	path := filepath.Join(j.dir, journalFileName)
	if err := durable.WriteFile(path, durable.Bytes(buf.Bytes())); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	j.size = int64(buf.Len())
	j.gen++
	j.appends = 0
	return nil
}

// readFrom returns committed journal bytes starting at offset from, for a
// tailing standby. If the caller's generation is stale (a compaction
// happened), it returns the whole log from offset zero and the new
// generation so the reader rebuilds from scratch. The file is opened under
// the journal lock — compaction renames under it too — so the handle and
// the size always describe the same file.
func (j *journal) readFrom(gen uint64, from int64) (data []byte, curGen uint64, next int64, err error) {
	j.mu.Lock()
	size, curGen := j.size, j.gen
	if gen != curGen || from > size || from < 0 {
		from = 0
	}
	var f *os.File
	if from < size {
		f, err = os.Open(filepath.Join(j.dir, journalFileName))
	}
	j.mu.Unlock()
	if from == size {
		return nil, curGen, size, nil
	}
	if err != nil {
		return nil, curGen, from, err
	}
	defer f.Close()
	data = make([]byte, size-from)
	if n, rerr := f.ReadAt(data, from); n < len(data) {
		return nil, curGen, from, fmt.Errorf("journal short read: %d of %d bytes: %w", n, len(data), rerr)
	}
	return data, curGen, size, nil
}

// replayJournal reads dir's journal into a fresh journalState. A decode
// error on the final frame (torn tail write) is tolerated: everything
// before it is returned with ok=true and the file is truncated back to
// the good prefix so later appends don't land after garbage. A decode
// error anywhere else, or an unreadable file, returns ok=false with
// whatever partial state was recovered — the caller falls back to
// worker-report reconstruction. records counts frames applied.
// Call before openJournal: the truncation needs exclusive access.
func replayJournal(dir string) (st *journalState, records int, ok bool, err error) {
	st = newJournalState()
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return st, 0, true, nil // empty journal: clean cold start
		}
		return st, 0, false, err
	}
	defer f.Close()
	var good int64 // end offset of the last fully-applied frame
	for {
		r, rerr := snap.NewReader(f)
		if rerr == io.EOF {
			return st, records, true, nil
		}
		if rerr != nil {
			// A torn final append (crash mid-write) surfaces as a
			// truncation: the frame's length field promises more bytes
			// than exist. That is a crash artifact, not corruption —
			// keep everything before it and cut the tail. Bad magic or a
			// checksum mismatch is real corruption: fall back to
			// worker-report reconstruction.
			if isTruncation(rerr) {
				if terr := f.Truncate(good); terr != nil {
					return st, records, false, terr
				}
				return st, records, true, nil
			}
			return st, records, false, rerr
		}
		if aerr := st.applyRecord(r); aerr != nil {
			return st, records, false, aerr
		}
		records++
		if good, err = f.Seek(0, io.SeekCurrent); err != nil {
			return st, records, false, err
		}
	}
}

// isTruncation reports whether a frame decode failed because the file
// ended mid-frame (torn tail) rather than because bytes were damaged.
func isTruncation(err error) bool {
	var de *snap.DecodeError
	return errors.As(err, &de) && strings.HasPrefix(de.Reason, "truncated")
}

// quarantineJournal moves a corrupt journal aside so reconstruction can
// start a fresh one while preserving the evidence.
func quarantineJournal(dir string) error {
	src := filepath.Join(dir, journalFileName)
	dst := filepath.Join(dir, journalCorruptFn)
	os.Remove(dst)
	if err := os.Rename(src, dst); err != nil {
		return err
	}
	return durable.SyncDir(dir)
}
