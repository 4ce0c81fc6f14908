package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestStateBytesTracksHeap pins the state estimate the server's memory
// budget parks sessions by to what a pair-tracking detector really holds,
// on a T=256 pool trace: the estimate stays within 2× of the heap the
// detector retains, and its cells are charged their real windows, well
// below the dense T-wide clock per cell they would take otherwise. (The
// pool workers are forked, so their accesses carry the fork ancestry and
// record whole effective times; their windows reach back to the forking
// thread.)
func TestStateBytesTracksHeap(t *testing.T) {
	const threads = 256
	tr := gen.ThreadScaling(gen.ThreadScalingConfig{Threads: threads, Events: 60_000, Shape: "pools", Races: 4})
	soa := tr.SoA()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{})
	d.ProcessBlock(soa)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int(after.HeapAlloc) - int(before.HeapAlloc)
	est := d.StateBytes()
	runtime.KeepAlive(d)
	runtime.KeepAlive(tr) // its events must not be freed inside the window

	cells, cellBytes := 0, 0
	for x := range d.vars {
		vs := &d.vars[x]
		cells += vs.reads.Len() + vs.writes.Len()
		cellBytes += vs.reads.Bytes() + vs.writes.Bytes()
	}
	t.Logf("estimate %d B, heap delta %d B; %d cells in %d B", est, heap, cells, cellBytes)
	if est > 2*heap || heap > 2*est {
		t.Errorf("StateBytes = %d, heap retained = %d: not within 2x", est, heap)
	}
	if cells == 0 {
		t.Fatal("no cells recorded; the trace should exercise pair tracking")
	}
	if dense := cells * (threads*4 + 24); cellBytes*2 > dense {
		t.Errorf("cells charged %d B, want well below the %d B of dense T-wide cells", cellBytes, dense)
	}
}
