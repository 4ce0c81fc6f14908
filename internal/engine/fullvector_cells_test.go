package engine

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/race"
	"repro/internal/trace"
)

// compatTrace is a fork/join trace whose accesses share three locations
// per variable, so its cells are written by several threads.
func compatTrace(threads int) *trace.Trace {
	tr := gen.Random(gen.RandomConfig{Threads: threads, Locks: 3, Vars: 4, Events: 600, ForkJoin: true, Seed: int64(threads)})
	evs := slices.Clone(tr.Events)
	for i := range evs {
		if evs[i].Kind.IsAccess() {
			evs[i].Loc = tr.Symbols.Location(fmt.Sprintf("site.x%d.%d", evs[i].Obj, i%3))
		}
	}
	return &trace.Trace{Events: evs, Symbols: tr.Symbols}
}

// TestRestoreFullVectorCells restores wcp and hb sessions from snapshots
// written when every pair-tracking cell held the full joined vector of its
// accesses' times, rather than one clock per accessing thread
// (testdata/fullvector-cells.snap: the sessions below, each snapshotted
// at its trace's midpoint, concatenated). Finishing the trace from the
// restored state must report exactly what an uninterrupted run reports.
func TestRestoreFullVectorCells(t *testing.T) {
	raw, err := os.ReadFile("testdata/fullvector-cells.snap")
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw)
	for _, threads := range []int{24, 4} {
		tr := compatTrace(threads)
		half := len(tr.Events) / 2
		for _, name := range []string{"wcp", "hb"} {
			s, got, err := RestoreSession(r)
			if err != nil || got != name {
				t.Fatalf("T=%d %s: restore: engine %q, %v", threads, name, got, err)
			}
			s.ProcessBlock(trace.BlockOf(tr.Events[half:]))
			restored := s.Finish()
			want := MustNew(name, Config{}).Analyze(tr)
			if restored.RacyEvents != want.RacyEvents || restored.FirstRace != want.FirstRace {
				t.Fatalf("T=%d %s: racy %d first %d, uninterrupted racy %d first %d", threads, name,
					restored.RacyEvents, restored.FirstRace, want.RacyEvents, want.FirstRace)
			}
			if want.Report.Distinct() == 0 {
				t.Fatalf("T=%d %s: the trace reports no pairs", threads, name)
			}
			samePairInfo(t, fmt.Sprintf("T=%d %s", threads, name), restored.Report, want.Report)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the last snapshot", r.Len())
	}
}

// samePairInfo compares two reports pair by pair, ignoring observation
// order (a restored table walks its cells in location order).
func samePairInfo(t *testing.T, label string, got, want *race.Report) {
	t.Helper()
	if got.Distinct() != want.Distinct() {
		t.Fatalf("%s: %d distinct pairs, want %d", label, got.Distinct(), want.Distinct())
	}
	for _, p := range want.Pairs() {
		g, w := got.Info(p), want.Info(p)
		if g == nil || g.Count != w.Count || g.FirstEvent != w.FirstEvent ||
			g.MinDistance != w.MinDistance || g.MaxDistance != w.MaxDistance ||
			g.Var != w.Var || !slices.Equal(g.Locks, w.Locks) {
			t.Fatalf("%s: pair %v = %+v, want %+v", label, p, g, w)
		}
	}
}
