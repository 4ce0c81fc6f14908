package hb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/event"
	"repro/internal/snap"
)

// restorePayload frames p with a valid checksum and decodes it as a
// detector snapshot that must consume the whole payload.
func restorePayload(p []byte) error {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	for _, c := range p {
		w.Byte(c)
	}
	if err := w.Close(); err != nil {
		return err
	}
	rd, err := snap.NewReader(&buf)
	if err != nil {
		return err
	}
	if _, err := DecodeSnapshot(rd); err != nil {
		return err
	}
	return rd.Close()
}

// TestSnapshotRejectsRetiredOptions: the option byte is 1 for the vector
// mode and 2 for the epoch mode; 0 (the retired count-only vector mode)
// and 3 must fail to restore with a *snap.DecodeError.
func TestSnapshotRejectsRetiredOptions(t *testing.T) {
	for _, opts := range []Options{{}, {Epoch: true}} {
		d := NewDetector(2, 1, 1, opts)
		d.Process(event.Event{Kind: event.Write, Thread: 0, Obj: 0})
		var buf bytes.Buffer
		w := snap.NewWriter(&buf)
		if err := d.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()[5:] // magic and version
		n, k := binary.Uvarint(b)
		p := b[k : k+int(n)]
		want := byte(1)
		if opts.Epoch {
			want = 2
		}
		if p[0] != want {
			t.Fatalf("%+v: option byte %d, want %d", opts, p[0], want)
		}
		if err := restorePayload(p); err != nil {
			t.Fatalf("%+v: unmodified payload: %v", opts, err)
		}
		for _, ob := range []byte{0, 3} {
			bad := bytes.Clone(p)
			bad[0] = ob
			var de *snap.DecodeError
			if err := restorePayload(bad); !errors.As(err, &de) {
				t.Errorf("%+v: option byte %d: restore returned %v, want a *snap.DecodeError", opts, ob, err)
			}
		}
	}
}
