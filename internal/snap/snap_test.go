package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

func frame(t *testing.T, fill func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := frame(t, func(w *Writer) {
		w.Uvarint(0)
		w.Uvarint(1 << 40)
		w.Varint(-5)
		w.Int(12345)
		w.Byte(0xab)
		w.Bool(true)
		w.Bool(false)
		w.String("hello")
		w.Bytes([]byte{1, 2, 3})
		w.I32s([]int32{-1, 0, 1 << 30, -32768})
		w.Sparse([]int32{0, 7, 0, 0, -2, 9})
	})
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if v, _ := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint: %d", v)
	}
	if v, _ := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint: %d", v)
	}
	if v, _ := r.Varint(); v != -5 {
		t.Fatalf("varint: %d", v)
	}
	if v, _ := r.Int(); v != 12345 {
		t.Fatalf("int: %d", v)
	}
	if v, _ := r.Byte(); v != 0xab {
		t.Fatalf("byte: %x", v)
	}
	if v, _ := r.Bool(); !v {
		t.Fatal("bool true")
	}
	if v, _ := r.Bool(); v {
		t.Fatal("bool false")
	}
	if v, _ := r.String(100); v != "hello" {
		t.Fatalf("string: %q", v)
	}
	if v, _ := r.Bytes(100); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", v)
	}
	v32, err := r.I32s(100)
	if err != nil || len(v32) != 4 || v32[0] != -1 || v32[2] != 1<<30 || v32[3] != -32768 {
		t.Fatalf("i32s: %v %v", v32, err)
	}
	sp := make([]int32, 6)
	if err := r.Sparse(sp); err != nil {
		t.Fatalf("sparse: %v", err)
	}
	want := []int32{0, 7, 0, 0, -2, 9}
	for i := range want {
		if sp[i] != want[i] {
			t.Fatalf("sparse[%d] = %d, want %d", i, sp[i], want[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestConcatenatedFrames(t *testing.T) {
	a := frame(t, func(w *Writer) { w.Uvarint(1) })
	b := frame(t, func(w *Writer) { w.Uvarint(2) })
	stream := bytes.NewReader(append(append([]byte{}, a...), b...))
	for want := uint64(1); want <= 2; want++ {
		r, err := NewReader(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if v, _ := r.Uvarint(); v != want {
			t.Fatalf("frame %d: got %d", want, v)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("frame %d close: %v", want, err)
		}
	}
	if _, err := NewReader(stream); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func wantDecodeError(t *testing.T, b []byte) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b))
	if err == nil {
		err = r.Close()
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("expected DecodeError, got %v", err)
	}
}

func TestCorruption(t *testing.T) {
	b := frame(t, func(w *Writer) { w.String("payload bytes here") })

	// Every single-bit flip must fail the checksum, the magic, the
	// version, or the framing — never decode successfully.
	for i := 0; i < len(b)*8; i++ {
		c := append([]byte{}, b...)
		c[i/8] ^= 1 << (i % 8)
		r, err := NewReader(bytes.NewReader(c))
		if err != nil {
			continue
		}
		if _, err := r.String(100); err == nil {
			if err := r.Close(); err == nil {
				t.Fatalf("bit flip %d decoded cleanly", i)
			}
		}
	}

	// Truncations at every boundary.
	for n := 0; n < len(b); n++ {
		r, err := NewReader(bytes.NewReader(b[:n]))
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly (%v)", n, r)
		}
	}

	// Version skew.
	c := append([]byte{}, b...)
	c[4] = Version + 1
	wantDecodeError(t, c)
}

func TestTrailingPayload(t *testing.T) {
	b := frame(t, func(w *Writer) {
		w.Uvarint(1)
		w.Uvarint(2) // decoder below only reads one value
	})
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if _, err := r.Uvarint(); err != nil {
		t.Fatalf("uvarint: %v", err)
	}
	var de *DecodeError
	if err := r.Close(); !errors.As(err, &de) {
		t.Fatalf("expected trailing-bytes DecodeError, got %v", err)
	}
}

func TestBoundsEnforced(t *testing.T) {
	b := frame(t, func(w *Writer) { w.String("much too long") })
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	var de *DecodeError
	if _, err := r.String(3); !errors.As(err, &de) {
		t.Fatalf("expected bound DecodeError, got %v", err)
	}
}

// TestSparseIndexOverflow: a sparse vector whose first index or delta is
// too large for the destination fails with a DecodeError instead of
// wrapping the index negative and panicking.
func TestSparseIndexOverflow(t *testing.T) {
	for _, steps := range [][]uint64{{1 << 63}, {1, 1<<64 - 1}, {2, 1 << 62}} {
		b := frame(t, func(w *Writer) {
			w.Uvarint(uint64(len(steps)))
			for _, d := range steps {
				w.Uvarint(d)
				w.Varint(5)
			}
		})
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		var de *DecodeError
		if err := r.Sparse(make([]int32, 9)); !errors.As(err, &de) {
			t.Fatalf("steps %v: expected a DecodeError, got %v", steps, err)
		}
	}
}

// TestShortStreamBoundedAllocation: a frame whose length field promises far
// more payload than the stream holds fails as truncated without allocating
// the promised size.
func TestShortStreamBoundedAllocation(t *testing.T) {
	hdr := append(append([]byte{}, magic[:]...), Version)
	hdr = binary.AppendUvarint(hdr, maxPayload)
	data := append(hdr, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("expected truncation DecodeError, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("decoding a 100-byte stream allocated %d bytes", got)
	}
}

// handFrame frames payload with the given raw length-field bytes and a valid
// CRC, bypassing Writer so tests can build encodings it never emits.
func handFrame(lenField, payload []byte) []byte {
	b := append(append([]byte{}, magic[:]...), Version)
	b = append(b, lenField...)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestNonMinimalVarintRejected: a padded varint (a multi-byte encoding whose
// last group is zero) decodes to the same value as its minimal form, so
// accepting one would let a CRC-valid payload restore to state whose
// re-encoding differs. Payload fields and the frame's length field must both
// reject it with a DecodeError.
func TestNonMinimalVarintRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(r *Reader) error
	}{
		{"uvarint", []byte{0x81, 0x00}, func(r *Reader) error { _, err := r.Uvarint(); return err }},
		{"uvarint zero", []byte{0x80, 0x00}, func(r *Reader) error { _, err := r.Uvarint(); return err }},
		{"varint", []byte{0x82, 0x80, 0x00}, func(r *Reader) error { _, err := r.Varint(); return err }},
		{"count", []byte{0x83, 0x00}, func(r *Reader) error { _, err := r.Count(10); return err }},
	} {
		r, err := NewReader(bytes.NewReader(handFrame([]byte{byte(len(tc.payload))}, tc.payload)))
		if err != nil {
			t.Fatalf("%s: reader: %v", tc.name, err)
		}
		var de *DecodeError
		if err := tc.read(r); !errors.As(err, &de) {
			t.Errorf("%s: padded encoding % x accepted (err %v)", tc.name, tc.payload, err)
		}
	}
	// The minimal multi-byte form still decodes.
	r, err := NewReader(bytes.NewReader(handFrame([]byte{2}, []byte{0x80, 0x01})))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if v, err := r.Uvarint(); err != nil || v != 128 {
		t.Fatalf("minimal uvarint: got %d, %v", v, err)
	}
	// A padded frame length (2 as 0x82 0x00) is rejected too.
	var de *DecodeError
	if _, err := NewReader(bytes.NewReader(handFrame([]byte{0x82, 0x00}, []byte{1, 2}))); !errors.As(err, &de) {
		t.Errorf("padded payload length accepted (err %v)", err)
	}
}
