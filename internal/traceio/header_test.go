package traceio

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
)

// hostileHeader is a header that declares huge symbol tables and then ends:
// a few bytes that used to preallocate gigabytes of intern tables.
func hostileHeader(count uint64) []byte {
	b := append([]byte(binaryMagic), binaryVersion)
	for range 4 {
		b = binary.AppendUvarint(b, count)
	}
	return b
}

// TestReadHeaderBoundsPreallocation pins that a header's declared table
// sizes cannot drive allocation past what its bytes could name: a ~20-byte
// header declaring 2^24-1 symbols per table must fail cheaply.
func TestReadHeaderBoundsPreallocation(t *testing.T) {
	body := hostileHeader(1<<24 - 1)
	if len(body) > 24 {
		t.Fatalf("hostile header is %d bytes, want a short one", len(body))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 10
	for range runs {
		if _, err := ReadHeader(bytes.NewReader(body)); err == nil {
			t.Fatal("truncated header decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 64<<10 {
		t.Fatalf("decoding a %d-byte header allocates %d bytes per run, want < 64 KiB", len(body), perRun)
	}
	allocs := testing.AllocsPerRun(runs, func() { _, _ = ReadHeader(bytes.NewReader(body)) })
	if allocs > 40 {
		t.Fatalf("decoding a %d-byte header makes %.0f allocations, want a handful", len(body), allocs)
	}
}

// FuzzReadHeader throws arbitrary bytes at the header decoder: it must
// never panic, and a header it accepts must re-encode to one that decodes
// to the same symbol tables and event count.
func FuzzReadHeader(f *testing.F) {
	tr := gen.Random(gen.RandomConfig{Threads: 3, Locks: 2, Vars: 3, Events: 40, Seed: 1})
	var good bytes.Buffer
	if err := WriteHeader(&good, tr.Symbols, tr.Len()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add(hostileHeader(1<<24 - 1))
	f.Add(hostileHeader(1 << 62))
	f.Add([]byte(binaryMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteHeader(&again, h.Syms, h.Events); err != nil {
			t.Fatalf("re-encoding an accepted header: %v", err)
		}
		h2, err := ReadHeader(&again)
		if err != nil {
			t.Fatalf("re-encoded header does not decode: %v", err)
		}
		if h2.Events != h.Events ||
			!slices.Equal(h2.Syms.ThreadNames(), h.Syms.ThreadNames()) ||
			!slices.Equal(h2.Syms.LockNames(), h.Syms.LockNames()) ||
			!slices.Equal(h2.Syms.VarNames(), h.Syms.VarNames()) ||
			!slices.Equal(h2.Syms.LocationNames(), h.Syms.LocationNames()) {
			t.Fatalf("header does not survive a re-encode: %+v vs %+v", h2.Dims(), h.Dims())
		}
	})
}
