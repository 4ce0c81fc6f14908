package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/event"
	"repro/internal/snap"
	"repro/internal/vc"
)

// payloadOf returns the payload bytes enc writes, unframed.
func payloadOf(t *testing.T, enc func(w *snap.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	if err := enc(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[5:] // magic and version
	n, k := binary.Uvarint(b)
	return b[k : k+int(n)]
}

// decodePayload frames p with a valid checksum and decodes it as a
// detector snapshot that must consume the whole payload.
func decodePayload(t *testing.T, p []byte) error {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	for _, c := range p {
		w.Byte(c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := snap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(rd); err != nil {
		return err
	}
	return rd.Close()
}

// TestSnapshotRejectsRetiredFields pins the reserved parts of the snapshot
// format: option byte 0 (the retired count-only vector mode) and 3, the
// variable flag bits 1–8 and the two epochs after the aggregate clocks
// (state of the retired count-only check) must all fail to restore with a
// *snap.DecodeError, so every accepted payload re-encodes byte for byte.
func TestSnapshotRejectsRetiredFields(t *testing.T) {
	d := NewDetector(2, 0, 1, Options{})
	d.Process(event.Event{Kind: event.Write, Thread: 0, Obj: 0})
	p := payloadOf(t, d.EncodeSnapshot)
	if err := decodePayload(t, p); err != nil {
		t.Fatalf("unmodified payload: %v", err)
	}
	// The variable section ends the payload: locate its flag byte and the
	// first reserved epoch, which follows the two aggregate clocks.
	vs := &d.vars[0]
	varStart := len(p) - len(payloadOf(t, func(w *snap.Writer) error {
		encodeVar(w, vs, vc.New(2))
		return nil
	}))
	clocks := len(payloadOf(t, func(w *snap.Writer) error {
		w.Byte(0)
		w.Clock(&vs.readAll)
		w.Clock(&vs.writeAll)
		return nil
	}))
	if p[varStart] != 0 || p[varStart+clocks] != 0 || p[varStart+clocks+1] != 0 {
		t.Fatalf("variable section misplaced: % x", p[varStart:])
	}
	for _, tc := range []struct {
		name string
		at   int
		set  byte
	}{
		{"option byte 0", 0, 0},
		{"option byte 3", 0, 3},
		{"variable flag 1", varStart, 1},
		{"variable flag 8", varStart, 8},
		{"first reserved epoch", varStart + clocks, 1},
		{"second reserved epoch", varStart + clocks + 1, 1},
	} {
		bad := bytes.Clone(p)
		bad[tc.at] = tc.set
		var de *snap.DecodeError
		if err := decodePayload(t, bad); !errors.As(err, &de) {
			t.Errorf("%s: restore returned %v, want a *snap.DecodeError", tc.name, err)
		}
	}
}
