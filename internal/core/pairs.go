package core

import (
	"sort"

	"repro/internal/event"
	"repro/internal/trace"
	"repro/internal/vc"
)

// This file implements the two-pass event-level race-pair extraction the
// paper describes at the end of §3.2: the streaming race check only
// identifies the *second* event e2 of each racing pair; "in order to
// determine the first part, we would have to go over the trace once more
// and individually compare the WCP times of the events against those
// conflicting events appearing later that were flagged to be in race in the
// initial analysis."
//
// Pass 1 runs the ordinary (pair-tracking) detector and collects the
// flagged events with their timestamps. Pass 2 re-runs the clock algorithm
// and, at every access that conflicts with a flagged later event, compares
// the access's time against the flagged event's time, emitting the concrete
// (e1, e2) pairs.

// EventPair is a concrete pair of racing events, identified by trace index.
type EventPair struct {
	First, Second int
}

// flagged describes one pass-1 racy event.
type flagged struct {
	index int
	time  vc.VC
}

// FindRacePairs returns every event-level WCP race pair (e1, e2) whose
// second event was flagged by the streaming race check, in order of the
// second event. Memory is O(racy events · T) plus the detector state; the
// trace is traversed twice.
//
// For the location-pair counts of Table 1 the single-pass Report suffices;
// this API serves callers that need the actual events — e.g. to hand them
// to the witness engine.
func FindRacePairs(tr *trace.Trace) []EventPair {
	// Pass 1: find the racy events and record their effective times.
	d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{})
	var flaggedEvents []flagged
	byVar := make(map[event.VID][]int) // variable -> indices into flaggedEvents
	for i, e := range tr.Events {
		before := d.res.RacyEvents
		d.Process(e)
		if d.res.RacyEvents > before {
			byVar[e.Var()] = append(byVar[e.Var()], len(flaggedEvents))
			flaggedEvents = append(flaggedEvents, flagged{
				index: i,
				time:  d.effectiveTime(int(e.Thread)).Clone(),
			})
		}
	}
	if len(flaggedEvents) == 0 {
		return nil
	}

	// Pass 2: re-run the clocks; at each access, test it against every
	// flagged later conflicting event. e1 ∥ e2 for e1 <tr e2 holds iff
	// C(e1) ⋢ C(e2) (Theorem 2). Only the clocks are read, so the cheap
	// epoch check stands in for the pair-tracking one: the check mode
	// leaves the clock machinery untouched.
	d2 := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{EpochCheck: true})
	var pairs []EventPair
	for i, e := range tr.Events {
		d2.Process(e)
		if !e.Kind.IsAccess() {
			continue
		}
		now := d2.effectiveTime(int(e.Thread))
		for _, fi := range byVar[e.Var()] {
			f := &flaggedEvents[fi]
			if f.index <= i {
				continue
			}
			if !tr.Events[f.index].Conflicts(e) {
				continue
			}
			if !now.LeqVC(f.time) {
				pairs = append(pairs, EventPair{First: i, Second: f.index})
			}
		}
	}
	// Order by second event, then first (the detection order of pass 1).
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Second != pairs[b].Second {
			return pairs[a].Second < pairs[b].Second
		}
		return pairs[a].First < pairs[b].First
	})
	return pairs
}
