package race_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/closure"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/race"
	"repro/internal/trace"
)

// oracleTraces yields random fork/join traces whose accesses are remapped
// onto a few program locations per variable, so one location's cell is
// written by several threads — the case where a cell's per-thread state
// matters — or onto dozens, so cell tables outgrow a scan and are indexed.
// Shapes run up to T=24, past the width where cells start full.
func oracleTraces() []*trace.Trace {
	shapes := []struct {
		cfg   gen.RandomConfig
		sites int
	}{
		{gen.RandomConfig{Threads: 3, Locks: 2, Vars: 2, ForkJoin: true}, 3},
		{gen.RandomConfig{Threads: 4, Locks: 2, Vars: 3}, 3},
		{gen.RandomConfig{Threads: 5, Locks: 3, Vars: 3, ForkJoin: true}, 3},
		{gen.RandomConfig{Threads: 8, Locks: 3, Vars: 4, ForkJoin: true}, 3},
		{gen.RandomConfig{Threads: 12, Locks: 4, Vars: 4, ForkJoin: true}, 3},
		{gen.RandomConfig{Threads: 12, Locks: 2, Vars: 3}, 3},
		{gen.RandomConfig{Threads: 24, Locks: 4, Vars: 5, ForkJoin: true}, 3},
		{gen.RandomConfig{Threads: 6, Locks: 2, Vars: 2, ForkJoin: true}, 60},
		{gen.RandomConfig{Threads: 24, Locks: 3, Vars: 2}, 60},
	}
	var out []*trace.Trace
	for i := 0; i < 72; i++ {
		sh := shapes[i%len(shapes)]
		cfg := sh.cfg
		cfg.Events = 320
		if sh.sites > 3 {
			cfg.Events = 900
		}
		cfg.Seed = int64(i)*104729 + 7
		tr := gen.Random(cfg)
		rng := rand.New(rand.NewSource(cfg.Seed))
		evs := slices.Clone(tr.Events)
		for j := range evs {
			if evs[j].Kind.IsAccess() {
				name := fmt.Sprintf("site.x%d.%d", evs[j].Obj, rng.Intn(sh.sites))
				evs[j].Loc = tr.Symbols.Location(name)
			}
		}
		out = append(out, &trace.Trace{Events: evs, Symbols: tr.Symbols})
	}
	return out
}

// bruteForceReport recomputes a pair-tracking detector's report from an
// event-level order: at each access j and for each conflicting (variable,
// kind, location) group — writes first, then reads when j writes — the pair
// (location, loc(j)) is observed once if any earlier access of the group is
// unordered with j, at distance j minus the group's most recent access. The
// context is the variable and the locks j's thread holds, outermost first.
func bruteForceReport(tr *trace.Trace, ordered func(i, j int) bool) (*race.Report, int) {
	type group struct {
		x     event.VID
		write bool
		loc   event.Loc
	}
	seen := make(map[group][]int)
	held := make(map[event.TID][]event.LID)
	rep := race.NewReport()
	racyEvents := 0
	for j, e := range tr.Events {
		switch e.Kind {
		case event.Acquire:
			held[e.Thread] = append(held[e.Thread], e.Lock())
		case event.Release:
			h := held[e.Thread]
			if k := slices.Index(h, e.Lock()); k >= 0 {
				held[e.Thread] = slices.Delete(h, k, k+1)
			}
		}
		if !e.Kind.IsAccess() {
			continue
		}
		isWrite := e.Kind == event.Write
		racy := false
		for g, accs := range seen {
			if g.x != e.Var() || (!g.write && !isWrite) {
				continue
			}
			for _, i := range accs {
				if !ordered(i, j) {
					racy = true
					ctx := race.Ctx{Var: e.Var(), Locks: held[e.Thread]}
					rep.RecordCtx(g.loc, e.Loc, j, j-accs[len(accs)-1], ctx)
					break
				}
			}
		}
		if racy {
			racyEvents++
		}
		g := group{e.Var(), isWrite, e.Loc}
		seen[g] = append(seen[g], j)
	}
	return rep, racyEvents
}

// samePairs compares two reports pair by pair, ignoring observation order.
func samePairs(t *testing.T, label string, got, want *race.Report) {
	t.Helper()
	if got.Distinct() != want.Distinct() {
		t.Fatalf("%s: %d distinct pairs, brute force finds %d", label, got.Distinct(), want.Distinct())
	}
	for _, p := range want.Pairs() {
		g, w := got.Info(p), want.Info(p)
		if g == nil {
			t.Fatalf("%s: pair %v missing", label, p)
		}
		if g.Count != w.Count || g.FirstEvent != w.FirstEvent ||
			g.MinDistance != w.MinDistance || g.MaxDistance != w.MaxDistance ||
			g.Var != w.Var || !slices.Equal(g.Locks, w.Locks) {
			t.Fatalf("%s: pair %v = %+v, brute force %+v", label, p, *g, *w)
		}
	}
}

// TestPairReportsMatchBruteForce pins the pair-tracking reports of both
// detectors to an event-level recomputation: WCP against the detector's own
// per-event effective times (themselves pinned to the closure by
// TestTheorem2TimestampsMatchClosure), HB against the closure.
func TestPairReportsMatchBruteForce(t *testing.T) {
	pairs := 0
	for ti, tr := range oracleTraces() {
		times := core.DetectOpts(tr, core.Options{CollectTimestamps: true}).Times
		want, racy := bruteForceReport(tr, func(i, j int) bool { return times[i].Leq(times[j]) })
		got := core.Detect(tr)
		samePairs(t, fmt.Sprintf("trace %d (T=%d) wcp", ti, tr.NumThreads()), got.Report, want)
		if got.RacyEvents != racy {
			t.Fatalf("trace %d wcp: %d racy events, brute force %d", ti, got.RacyEvents, racy)
		}

		rel := closure.ComputeHB(tr)
		want, racy = bruteForceReport(tr, rel.Has)
		gotHB := hb.Detect(tr)
		samePairs(t, fmt.Sprintf("trace %d (T=%d) hb", ti, tr.NumThreads()), gotHB.Report, want)
		if gotHB.RacyEvents != racy {
			t.Fatalf("trace %d hb: %d racy events, brute force %d", ti, gotHB.RacyEvents, racy)
		}
		pairs += got.Report.Distinct() + gotHB.Report.Distinct()
	}
	if pairs < 500 {
		t.Fatalf("only %d race pairs across all traces; the oracle is nearly vacuous", pairs)
	}
}

// TestPairOrderDeterministic pins the report's first-observation order:
// the pairs one access races with are recorded in the order their cells
// were first accessed, so identical input yields an identical Pairs()
// sequence — the order report stores list race classes in.
func TestPairOrderDeterministic(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 6, Locks: 2, Vars: 3, Events: 3000, Seed: 11})
	detectors := map[string]func() *race.Report{
		"wcp": func() *race.Report { return core.Detect(tr).Report },
		"hb":  func() *race.Report { return hb.Detect(tr).Report },
	}
	for name, detect := range detectors {
		first := detect().Pairs()
		if len(first) < 10 {
			t.Fatalf("%s: only %d pairs; the trace should race richly", name, len(first))
		}
		for run := 1; run < 10; run++ {
			got := detect().Pairs()
			if len(got) != len(first) {
				t.Fatalf("%s: run %d lists %d pairs, first run %d", name, run, len(got), len(first))
			}
			for k := range got {
				if got[k] != first[k] {
					t.Fatalf("%s: run %d lists pair %d as %v, first run as %v", name, run, k, got[k], first[k])
				}
			}
		}
	}
}
