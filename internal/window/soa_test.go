package window_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/window"
)

// TestWindowSoAMatchesEvents checks every fragment's structure-of-arrays
// view is byte-identical to its event slice — windows are fresh traces, so
// each builds its own SoA block on demand.
func TestWindowSoAMatchesEvents(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 4, Locks: 3, Vars: 4, Events: 300, Seed: 11})
	for wi, w := range window.Split(tr, 37) {
		soa := w.SoA()
		if soa.Len() != len(w.Events) {
			t.Fatalf("window %d: SoA length %d, want %d", wi, soa.Len(), len(w.Events))
		}
		for i := range w.Events {
			if soa.At(i) != w.Events[i] {
				t.Fatalf("window %d: SoA event %d differs", wi, i)
			}
		}
	}
}

// TestWindowedAnalysisOverSoABlocks runs the windowed WCP ablation over SoA
// blocks: analyzing each fragment through its SoA view (the detectors'
// block path) must flag exactly the races of the per-event legacy walk,
// including on windows whose boundaries split critical sections.
func TestWindowedAnalysisOverSoABlocks(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 3, Locks: 2, Vars: 3, Events: 400, Seed: 23})
	// Sizes chosen so boundaries fall inside critical sections (the
	// carried synthetic acquires exercise the detector's lock handling).
	for _, size := range []int{7, 23, 64} {
		for wi, w := range window.Split(tr, size) {
			soaRes := core.DetectOpts(w, core.Options{})
			legacy := core.NewDetector(w.NumThreads(), w.NumLocks(), w.NumVars(), core.Options{})
			for _, e := range w.Events {
				legacy.Process(e)
			}
			lr := legacy.Result()
			if soaRes.RacyEvents != lr.RacyEvents || soaRes.FirstRace != lr.FirstRace ||
				soaRes.Report.Distinct() != lr.Report.Distinct() {
				t.Fatalf("size %d window %d: SoA block analysis diverges from legacy walk (racy %d/%d)",
					size, wi, soaRes.RacyEvents, lr.RacyEvents)
			}
		}
	}
}

// TestSplitBoundarySplitsCriticalSection pins the carried-lock behavior
// when a boundary splits nested critical sections: the follow-up fragment
// must reopen every still-held lock, outermost first, and windowed WCP must
// accept the fragment without spurious mismatched-release behavior.
func TestSplitBoundarySplitsCriticalSection(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire("t1", "outer")
	b.Acquire("t1", "inner")
	b.Write("t1", "x")
	b.Write("t1", "y")
	b.Write("t1", "z")
	b.Release("t1", "inner")
	b.Release("t1", "outer")
	b.Acquire("t2", "outer")
	b.Write("t2", "x")
	b.Release("t2", "outer")
	tr := b.MustBuild()
	// Size 3 cuts in the middle of the nested section: window 1 starts
	// inside both "outer" and "inner".
	ws := window.Split(tr, 3)
	w1 := ws[1]
	if len(w1.Events) < 5 {
		t.Fatalf("window 1 too short: %d events", len(w1.Events))
	}
	if w1.Events[0].Kind != event.Acquire || w1.Events[0].Loc != event.NoLoc {
		t.Fatalf("window 1 must reopen the outer lock, got %v", w1.Events[0])
	}
	if w1.Events[1].Kind != event.Acquire || w1.Events[1].Loc != event.NoLoc {
		t.Fatalf("window 1 must reopen the inner lock, got %v", w1.Events[1])
	}
	if w1.Events[0].Lock() != tr.Symbols.Lock("outer") || w1.Events[1].Lock() != tr.Symbols.Lock("inner") {
		t.Fatalf("carried acquires must reopen outermost first: %v then %v", w1.Events[0], w1.Events[1])
	}
	if err := trace.Validate(w1); err != nil {
		t.Fatalf("split-section window should validate: %v", err)
	}
	for wi, w := range ws {
		res := core.DetectOpts(w, core.Options{})
		if res.RacyEvents != 0 {
			t.Errorf("window %d: lock-protected accesses flagged racy (%d)", wi, res.RacyEvents)
		}
	}
}

// TestWindowedMergeDeterministic checks the windowed-ablation workflow over
// SoA blocks end to end: splitting, analyzing each fragment, and merging
// reports yields the same result on repeated runs.
func TestWindowedMergeDeterministic(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 4, Locks: 2, Vars: 3, Events: 500, Seed: 31})
	run := func() (int, int) {
		total := race.NewReport()
		racy := 0
		for _, w := range window.Split(tr, 50) {
			res := core.DetectOpts(w, core.Options{})
			racy += res.RacyEvents
			total.Merge(res.Report)
		}
		return racy, total.Distinct()
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 || d1 != d2 {
		t.Fatalf("windowed runs diverge: racy %d/%d distinct %d/%d", r1, r2, d1, d2)
	}
}
