package traceio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/event"
	"repro/internal/trace"
)

// Binary format layout (all integers are unsigned varints unless noted):
//
//	magic   "WCPT"          4 bytes
//	version                 1 byte (currently 1)
//	nthreads, nlocks, nvars, nlocs
//	nthreads × string       length-prefixed thread names
//	nlocks   × string       lock names
//	nvars    × string       variable names
//	nlocs    × string       location names
//	nevents
//	nevents  × event        kind (1 byte), thread, obj, loc+1 (0 = NoLoc)
//
// The header carries the full symbol universe and the event count before the
// first event, so a streaming consumer can size detector state and buffers
// up front and decode the body block by block (see stream.go).
const (
	binaryMagic   = "WCPT"
	binaryVersion = 1
)

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// writeBinaryHeader writes the magic, version, symbol tables and event count.
func writeBinaryHeader(bw *bufio.Writer, syms *event.Symbols, nevents int) error {
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	tables := [][]string{
		syms.ThreadNames(),
		syms.LockNames(),
		syms.VarNames(),
		syms.LocationNames(),
	}
	for _, names := range tables {
		if err := writeUvarint(bw, uint64(len(names))); err != nil {
			return err
		}
	}
	for _, names := range tables {
		for _, name := range names {
			if err := writeString(bw, name); err != nil {
				return err
			}
		}
	}
	return writeUvarint(bw, uint64(nevents))
}

func writeEvent(bw *bufio.Writer, e event.Event) error {
	if err := bw.WriteByte(byte(e.Kind)); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(e.Thread)); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(e.Obj)); err != nil {
		return err
	}
	return writeUvarint(bw, uint64(e.Loc+1))
}

// BinaryWriter emits a binary-format trace incrementally: the header (symbol
// tables and declared event count) up front, then events in caller-sized
// blocks, never materializing the trace. The symbol table must be complete
// and the event count known before the header is written — generators that
// stream events procedurally intern their universe first.
type BinaryWriter struct {
	bw        *bufio.Writer
	remaining uint64
}

// NewBinaryWriter writes the header for a trace of exactly nevents events
// naming syms, and returns a writer for the event body.
func NewBinaryWriter(w io.Writer, syms *event.Symbols, nevents int) (*BinaryWriter, error) {
	bw := bufio.NewWriter(w)
	if err := writeBinaryHeader(bw, syms, nevents); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return &BinaryWriter{bw: bw, remaining: uint64(nevents)}, nil
}

// WriteEvents appends a block of events to the trace body. Writing more
// events than the header declared is an error.
func (w *BinaryWriter) WriteEvents(events []event.Event) error {
	if uint64(len(events)) > w.remaining {
		return fmt.Errorf("traceio: writing %d events exceeds the %d remaining of the declared count", len(events), w.remaining)
	}
	for _, e := range events {
		if err := writeEvent(w.bw, e); err != nil {
			return fmt.Errorf("traceio: %w", err)
		}
		// Debited per event so remaining tracks what was actually encoded
		// even on a partial-write error.
		w.remaining--
	}
	return nil
}

// Flush flushes buffered output and verifies the declared event count was
// met exactly. Call it once after the last WriteEvents.
func (w *BinaryWriter) Flush() error {
	if w.remaining != 0 {
		return fmt.Errorf("traceio: trace short by %d events of the declared count", w.remaining)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// WriteBinary writes tr to w in the binary format.
func WriteBinary(w io.Writer, tr *trace.Trace) error {
	bw, err := NewBinaryWriter(w, tr.Symbols, len(tr.Events))
	if err != nil {
		return err
	}
	if err := bw.WriteEvents(tr.Events); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeError reports a corrupt binary trace together with where decoding
// stopped: the byte offset into the input (relative to the start of the
// stream, or of the chunk body for NewEventStream), the index of the event
// being decoded (-1 while still in the header), and the file path when the
// stream was opened from one. Corpus runners and the raced server surface
// it so logs say exactly where a trace is corrupt.
type DecodeError struct {
	Path   string // file path, "" for reader-backed streams
	Offset int64  // byte offset where decoding stopped
	Event  int64  // index of the event being decoded, -1 in the header
	Err    error  // underlying reason
}

func (e *DecodeError) Error() string {
	where := "header"
	if e.Event >= 0 {
		where = fmt.Sprintf("event %d", e.Event)
	}
	if e.Path != "" {
		return fmt.Sprintf("traceio: %s: %s at byte offset %d: %v", e.Path, where, e.Offset, e.Err)
	}
	return fmt.Sprintf("traceio: %s at byte offset %d: %v", where, e.Offset, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// headerError wraps a header-decode failure with the current byte offset.
func headerError(br *binaryReader, err error) *DecodeError {
	return &DecodeError{Offset: br.off, Event: -1, Err: err}
}

type binaryReader struct {
	br  *bufio.Reader
	src io.Reader // br's source, when known: its unread length bounds the input
	off int64     // bytes consumed so far
}

// inputBound returns an upper bound on the input bytes left to read from
// a bufio.Reader holding buffered bytes over src: the buffered bytes, plus
// the unread length of src when src reports one (bytes.Reader,
// strings.Reader and bytes.Buffer their Len, a regular file its size past
// the current offset). known is false when src's length is unknown; the
// bound then counts the buffered bytes alone, so a caller sizing an
// allocation by it grows past it only as input actually arrives.
func inputBound(buffered int, src io.Reader) (n int64, known bool) {
	n = int64(buffered)
	switch s := src.(type) {
	case interface{ Len() int }:
		return n + int64(s.Len()), true
	case *os.File:
		fi, err := s.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return n, false
		}
		off, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return n, false
		}
		return n + max(fi.Size()-off, 0), true
	}
	return n, false
}

// ReadByte implements io.ByteReader, counting consumed bytes so decode
// errors can carry the offset where the input went bad.
func (r *binaryReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

func (r *binaryReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

func (r *binaryReader) full(buf []byte) error {
	n, err := io.ReadFull(r.br, buf)
	r.off += int64(n)
	return err
}

func (r *binaryReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	const maxName = 1 << 20
	if n > maxName {
		return "", fmt.Errorf("symbol name length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if err := r.full(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readBinaryHeader consumes the magic, version, symbol tables and event
// count, returning the interned symbols, the raw table sizes (for operand
// range checks) and the declared event count.
func readBinaryHeader(br *binaryReader) (*event.Symbols, [4]uint64, uint64, error) {
	var counts [4]uint64
	magic := make([]byte, len(binaryMagic))
	if err := br.full(magic); err != nil {
		return nil, counts, 0, headerError(br, fmt.Errorf("reading magic: %w", noEOF(err)))
	}
	if string(magic) != binaryMagic {
		return nil, counts, 0, headerError(br, fmt.Errorf("bad magic %q, want %q", magic, binaryMagic))
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, counts, 0, headerError(br, fmt.Errorf("reading version: %w", noEOF(err)))
	}
	if ver != binaryVersion {
		return nil, counts, 0, headerError(br, fmt.Errorf("unsupported version %d", ver))
	}
	for i := range counts {
		if counts[i], err = br.uvarint(); err != nil {
			return nil, counts, 0, headerError(br, fmt.Errorf("reading symbol counts: %w", noEOF(err)))
		}
	}
	// Every name takes at least one byte, so the input left bounds each
	// table: a corrupt or hostile count cannot make a short header
	// allocate more than its bytes could name.
	syms := &event.Symbols{}
	n, _ := inputBound(br.br.Buffered(), br.src)
	bound := uint64(n)
	syms.Preallocate(int(min(counts[0], bound)), int(min(counts[1], bound)),
		int(min(counts[2], bound)), int(min(counts[3], bound)))
	interners := [4]func(string){
		func(s string) { syms.Thread(s) },
		func(s string) { syms.Lock(s) },
		func(s string) { syms.Var(s) },
		func(s string) { syms.Location(s) },
	}
	for i, add := range interners {
		for j := uint64(0); j < counts[i]; j++ {
			name, err := br.str()
			if err != nil {
				return nil, counts, 0, headerError(br, fmt.Errorf("reading symbols: %w", noEOF(err)))
			}
			add(name)
		}
	}
	nev, err := br.uvarint()
	if err != nil {
		return nil, counts, 0, headerError(br, fmt.Errorf("reading event count: %w", noEOF(err)))
	}
	return syms, counts, nev, nil
}

// noEOF converts a bare io.EOF — input that simply ran out partway through a
// structure — into io.ErrUnexpectedEOF, so truncation reads as corruption
// rather than clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeEvent decodes one event of the body, validating operand ranges
// against the header's table sizes. i is the event index; decode failures
// come back as a *DecodeError carrying i and the byte offset of the event.
func decodeEvent(br *binaryReader, counts [4]uint64, i uint64) (event.Event, error) {
	start := br.off
	fail := func(err error) (event.Event, error) {
		return event.Event{}, &DecodeError{Offset: start, Event: int64(i), Err: err}
	}
	kindB, err := br.ReadByte()
	if err != nil {
		return fail(noEOF(err))
	}
	kind := event.Kind(kindB)
	if !kind.Valid() {
		return fail(fmt.Errorf("invalid kind %d", kindB))
	}
	thread, err := br.uvarint()
	if err != nil {
		return fail(noEOF(err))
	}
	obj, err := br.uvarint()
	if err != nil {
		return fail(noEOF(err))
	}
	locP1, err := br.uvarint()
	if err != nil {
		return fail(noEOF(err))
	}
	if thread >= counts[0] {
		return fail(fmt.Errorf("thread index %d out of range", thread))
	}
	if locP1 > counts[3] {
		return fail(fmt.Errorf("location index %d out of range", locP1))
	}
	var objLimit uint64
	switch kind {
	case event.Acquire, event.Release:
		objLimit = counts[1]
	case event.Read, event.Write:
		objLimit = counts[2]
	case event.Fork, event.Join:
		objLimit = counts[0]
	}
	if obj >= objLimit {
		return fail(fmt.Errorf("operand index %d out of range", obj))
	}
	return event.Event{
		Kind:   kind,
		Thread: event.TID(thread),
		Obj:    int32(obj),
		Loc:    event.Loc(locP1) - 1,
	}, nil
}

// Header is the binary format's preamble — the symbol universe plus the
// declared event count — decoupled from the event body, so a producer can
// ship the header in one piece (a raced session-create request) and the
// events separately in arbitrarily-chunked bodies (see NewEventStream).
type Header struct {
	// Syms is the complete symbol universe of the trace.
	Syms *event.Symbols
	// Events is the declared event count; <= 0 means open-ended (the body
	// length is not known up front, as in a live session).
	Events int
}

// counts returns the operand-validation limits implied by the universe.
func (h Header) counts() [4]uint64 {
	return [4]uint64{
		uint64(h.Syms.NumThreads()),
		uint64(h.Syms.NumLocks()),
		uint64(h.Syms.NumVars()),
		uint64(h.Syms.NumLocations()),
	}
}

// Dims returns the trace dimensions the header declares (Events is -1 when
// open-ended).
func (h Header) Dims() Dims {
	d := Dims{
		Threads: h.Syms.NumThreads(),
		Locks:   h.Syms.NumLocks(),
		Vars:    h.Syms.NumVars(),
		Locs:    h.Syms.NumLocations(),
		Events:  h.Events,
	}
	if h.Events <= 0 {
		d.Events = -1
	}
	return d
}

// WriteHeader writes a standalone binary trace header: the symbol universe
// and the declared event count (use 0 for an open-ended body). The written
// bytes are exactly the preamble a full binary trace would start with.
func WriteHeader(w io.Writer, syms *event.Symbols, nevents int) error {
	bw := bufio.NewWriter(w)
	if err := writeBinaryHeader(bw, syms, nevents); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// ReadHeader decodes a standalone binary trace header from r. It may read
// past the header's last byte (buffering), so r should contain only a
// header; to decode header and body from one stream use OpenStream.
func ReadHeader(r io.Reader) (Header, error) {
	br := &binaryReader{br: bufio.NewReader(r), src: r}
	syms, _, nev, err := readBinaryHeader(br)
	if err != nil {
		return Header{}, err
	}
	return Header{Syms: syms, Events: int(nev)}, nil
}

// EncodeEvents writes events in the binary body encoding, with no header:
// the chunk format of a raced session. Every event is written whole, so
// concatenated EncodeEvents outputs always split on event boundaries.
func EncodeEvents(w io.Writer, events []event.Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if err := writeEvent(bw, e); err != nil {
			return fmt.Errorf("traceio: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// ReadBinary parses a binary-format trace from r.
func ReadBinary(r io.Reader) (*trace.Trace, error) {
	return readBinary(&binaryReader{br: bufio.NewReader(r), src: r})
}

func readBinary(br *binaryReader) (*trace.Trace, error) {
	syms, counts, nev, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Symbols: syms, Events: make([]event.Event, 0, nev)}
	for i := uint64(0); i < nev; i++ {
		e, err := decodeEvent(br, counts, i)
		if err != nil {
			return nil, err
		}
		tr.Events = append(tr.Events, e)
	}
	return tr, nil
}
