package main

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/traceio"
)

func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func headerBytes(t *testing.T, tr *trace.Trace) int {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteHeader(&buf, tr.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

func TestGeneratedTracesAreValid(t *testing.T) {
	for _, w := range workloads {
		tr := generate(w.shape, 20000, 1)
		if err := trace.Validate(tr); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if tr.Len() < 20000 {
			t.Errorf("%s: %d events, want at least 20000", w.name, tr.Len())
		}
		d := tr.Symbols
		if d.NumThreads() != w.shape.Threads || d.NumLocks() != w.shape.Locks ||
			d.NumVars() != w.shape.Vars || d.NumLocations() != w.shape.Sites {
			t.Errorf("%s: symbol universe %d/%d/%d/%d, want the shape's %+v", w.name,
				d.NumThreads(), d.NumLocks(), d.NumVars(), d.NumLocations(), w.shape)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := encodeTrace(t, generate(w.shape, 5000, 7))
		b := encodeTrace(t, generate(w.shape, 5000, 7))
		c := encodeTrace(t, generate(w.shape, 5000, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal seeds gave different traces", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave identical traces", w.name)
		}
	}
}

func TestHeaderBytesIndependentOfLength(t *testing.T) {
	for _, w := range workloads {
		short := headerBytes(t, generate(w.shape, 100, 3))
		long := headerBytes(t, generate(w.shape, 100000, 3))
		if short != long {
			t.Errorf("%s: header is %d bytes at 100 events but %d at 100000", w.name, short, long)
		}
	}
}

// TestRaceProbShapesTheWorkload pins the property the workloads are chosen
// for: the sparse trace has a handful of distinct races, the dense one
// thousands.
func TestRaceProbShapesTheWorkload(t *testing.T) {
	distinct := func(name string) int {
		w := workloadByName(name)
		return refResults(generate(w.shape, 100000, 5), []string{"wcp"})[0].distinct
	}
	sparse, dense := distinct("stream-sparse"), distinct("stream-dense")
	if sparse == 0 || sparse > 1000 {
		t.Errorf("stream-sparse: %d distinct races, want a few (1..1000)", sparse)
	}
	if dense < 5000 {
		t.Errorf("stream-dense: %d distinct races, want thousands", dense)
	}
}
