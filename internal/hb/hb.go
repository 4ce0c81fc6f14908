// Package hb implements happens-before race detection (Definition 1): the
// classical linear-time vector-clock algorithm (Djit+ style), which the
// paper uses as its scalability baseline (§4, "HB is the simplest sound
// technique, and admits a fast linear time algorithm"), plus a
// FastTrack-style epoch-optimized variant.
//
// Like the paper's RAPID implementation, the HB analysis here is NOT
// windowed: it sees the whole trace and therefore catches the far-apart
// event pairs that windowed tools miss (§4.3).
//
// The detector is streaming, mirroring the WCP detector in internal/core:
// create it with NewDetector (dimensions known up front, e.g. from a binary
// trace header), feed events in trace order with Process, then read the
// Result. It shares the WCP detector's allocation discipline: per-thread
// clocks live in one contiguous bank, and the epoch path recycles inflated
// read vectors through a vc.Arena, so steady-state processing performs
// near-zero heap allocations per event.
//
// It also shares the WCP detector's windowed-clock discipline (vc.WC):
// thread, lock and per-variable clocks carry dirty windows, so joins and
// race-check comparisons touch only the components that can differ from
// zero — work proportional to how many threads actually communicated, not
// to the thread count. A per-lock join cache (release generation +
// per-thread last-joined generation) sits on top and skips the acquire-side
// join when the thread has already absorbed the lock clock's current value.
//
// The vector-clock mode reports distinct race pairs per program-location
// pair (the Table 1 metric) through per-location cells (race.Cells) that
// are walked only once the aggregate read/write clock check has failed.
package hb

import (
	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Options configures the detector.
type Options struct {
	// Epoch selects the FastTrack-style epoch representation for the
	// per-variable state (see fasttrack.go): one clock@thread word per
	// variable in the common case, inflating reads to a vector clock only
	// under read sharing. Epoch mode flags a subset of racy events (the
	// same-epoch fast path suppresses re-checks within an epoch) but agrees
	// on whether any race exists and on the first racy event. It reports no
	// pairs.
	Epoch bool
}

// Result is the outcome of an HB analysis.
type Result struct {
	// Report holds the distinct race pairs (nil with Options.Epoch).
	Report *race.Report
	// RacyEvents counts events flagged as racing with an earlier access.
	RacyEvents int
	// FirstRace is the trace index of the first racy event, or -1.
	FirstRace int
	// Events is the number of events processed.
	Events int
}

// varState is the per-variable detector state of the full-vector-clock mode.
type varState struct {
	readAll       vc.WC      // join of all read times (Rx in §3.2)
	writeAll      vc.WC      // join of all write times (Wx)
	reads, writes race.Cells // pair-tracking cell tables
}

// hbLock is the per-lock state: the windowed clock of the last release
// plus the join cache — gen counts releases, joinGen[t] is the generation
// thread t last absorbed (or produced), so a matching generation skips the
// acquire-side join entirely (the thread's clock only grows).
type hbLock struct {
	c       vc.WC
	gen     uint32
	joinGen []uint32
}

// Detector is the streaming HB race detector.
type Detector struct {
	opts  Options
	width int
	ct    []vc.WC   // C_t: current HB time of thread t, one contiguous bank
	locks []*hbLock // L_ℓ: last-release state of ℓ, allocated on first use
	vars  []varState
	evars []ftVar   // epoch-mode per-variable state (fasttrack.go)
	arena *vc.Arena // recycled storage for inflated read vectors
	res   Result
	// held tracks each thread's currently-held locks, maintained in vector
	// mode to supply the fingerprint context of race observations (HB has
	// no critical-section stack of its own).
	held [][]event.LID
	// joined marks threads some other thread has joined. In a well-formed
	// trace a joined thread emits no further events, so its clock is frozen
	// and compaction (compact.go) excludes it from the domination floor.
	joined []bool
}

// NewDetector returns a detector for traces with the given numbers of
// threads, locks and variables (known up front, e.g. from a binary trace
// header or a prior counting pass).
func NewDetector(threads, locks, vars int, opts Options) *Detector {
	d := &Detector{
		opts:   opts,
		width:  threads,
		ct:     vc.NewWCMatrix(threads, threads),
		locks:  make([]*hbLock, locks),
		arena:  vc.NewArena(threads),
		joined: make([]bool, threads),
	}
	d.res.FirstRace = -1
	if opts.Epoch {
		d.evars = make([]ftVar, vars)
	} else {
		d.vars = make([]varState, vars)
		d.res.Report = race.NewReport()
		d.held = make([][]event.LID, threads)
	}
	for t := range d.ct {
		d.ct[t].Set(t, 1)
	}
	return d
}

// Arena exposes the detector's clock arena for allocation accounting.
func (d *Detector) Arena() *vc.Arena { return d.arena }

func (d *Detector) flag(i int) {
	d.res.RacyEvents++
	if d.res.FirstRace < 0 {
		d.res.FirstRace = i
	}
}

// Process feeds the next event of the trace to the detector.
func (d *Detector) Process(e event.Event) {
	i := d.res.Events
	d.res.Events++
	d.stepAt(i, e.Kind, int(e.Thread), e.Obj, e.Loc)
}

// ProcessBlock feeds a structure-of-arrays block of events to the detector,
// the hot ingestion path: the dispatch loop reads the four dense field
// streams directly, and the event counter is maintained per block.
func (d *Detector) ProcessBlock(b *trace.Block) {
	kinds, threads, objs, locs := b.Kinds, b.Threads, b.Objs, b.Locs
	base := d.res.Events
	d.res.Events = base + len(kinds)
	for i, k := range kinds {
		d.stepAt(base+i, event.Kind(k), int(threads[i]), objs[i], event.Loc(locs[i]))
	}
}

// stepAt processes event number i given its unpacked fields. d.res.Events
// must already count the event.
func (d *Detector) stepAt(i int, kind event.Kind, t int, obj int32, loc event.Loc) {
	switch kind {
	case event.Acquire:
		if d.held != nil {
			d.held[t] = append(d.held[t], event.LID(obj))
		}
		// Join cache: a matching generation proves this thread has already
		// absorbed (or produced) the lock clock's current value.
		if lk := d.locks[obj]; lk != nil && lk.joinGen[t] != lk.gen {
			d.ct[t].Join(&lk.c)
			lk.joinGen[t] = lk.gen
		}
	case event.Release:
		if d.held != nil {
			d.popHeld(t, event.LID(obj))
		}
		lk := d.locks[obj]
		if lk == nil {
			lk = &hbLock{joinGen: make([]uint32, d.width)}
			lk.c.Init(d.width)
			d.locks[obj] = lk
		}
		lk.c.Copy(&d.ct[t])
		lk.gen++
		lk.joinGen[t] = lk.gen
		d.ct[t].Set(t, d.ct[t].Get(t)+1)
	case event.Fork:
		u := int(obj)
		d.ct[u].Join(&d.ct[t])
		d.ct[t].Set(t, d.ct[t].Get(t)+1)
	case event.Join:
		d.ct[t].Join(&d.ct[int(obj)])
		d.joined[int(obj)] = true
	case event.Read:
		if d.opts.Epoch {
			d.readEpoch(i, t, event.VID(obj))
			return
		}
		d.read(i, t, event.VID(obj), loc)
	case event.Write:
		if d.opts.Epoch {
			d.writeEpoch(i, t, event.VID(obj))
			return
		}
		d.write(i, t, event.VID(obj), loc)
	}
}

// popHeld removes lock l from thread t's held stack, scanning from the top
// so non-nested release orders still unwind correctly.
func (d *Detector) popHeld(t int, l event.LID) {
	h := d.held[t]
	for j := len(h) - 1; j >= 0; j-- {
		if h[j] == l {
			d.held[t] = append(h[:j], h[j+1:]...)
			return
		}
	}
}

func (d *Detector) read(i, t int, x event.VID, loc event.Loc) {
	vs := &d.vars[x]
	now := &d.ct[t]
	if vs.writeAll.Ready() && !vs.writeAll.LeqVC(now.VC()) &&
		vs.writes.Check(d.res.Report, now.VC(), i, loc, race.Ctx{Var: x, Locks: d.held[t]}) {
		d.flag(i)
	}
	if !vs.readAll.Ready() {
		vs.readAll.Init(d.width)
	}
	vs.readAll.Join(now)
	vs.reads.Record(loc, i, t, []vc.Clock{now.Get(t)}, d.width)
}

func (d *Detector) write(i, t int, x event.VID, loc event.Loc) {
	vs := &d.vars[x]
	now := &d.ct[t]
	racyW := vs.writeAll.Ready() && !vs.writeAll.LeqVC(now.VC())
	racyR := vs.readAll.Ready() && !vs.readAll.LeqVC(now.VC())
	if racyW || racyR {
		ctx := race.Ctx{Var: x, Locks: d.held[t]}
		racy := racyW && vs.writes.Check(d.res.Report, now.VC(), i, loc, ctx)
		if racyR && vs.reads.Check(d.res.Report, now.VC(), i, loc, ctx) {
			racy = true
		}
		if racy {
			d.flag(i)
		}
	}
	if !vs.writeAll.Ready() {
		vs.writeAll.Init(d.width)
	}
	vs.writeAll.Join(now)
	vs.writes.Record(loc, i, t, []vc.Clock{now.Get(t)}, d.width)
}

// Result returns the analysis outcome accumulated so far. The returned
// value shares state with the detector; read it after the last Process.
func (d *Detector) Result() *Result { return &d.res }

// Detect runs the full-vector-clock HB race detector over tr, reporting
// distinct race pairs.
func Detect(tr *trace.Trace) *Result {
	return DetectOpts(tr, Options{})
}

// DetectOpts runs the HB race detector over a whole trace, walking its
// structure-of-arrays view.
func DetectOpts(tr *trace.Trace, opts Options) *Result {
	d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
	d.ProcessBlock(tr.SoA())
	return d.Result()
}
