package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/trace"
)

// workload is one named input mix. Every client runs a closed loop: open a
// session, stream the trace chunk by chunk waiting for each ack, finish,
// repeat — as recording processes do.
type workload struct {
	name, why string
	shape     shape
	events    int // per trace
	pool      int // distinct traces the clients draw from
	clients   int
	engines   []string
}

// stream-sparse runs two clients, not one: a single closed-loop stream
// leaves the CPUs idle between its hand-offs (client, coordinator, worker),
// so its throughput follows how fast the host wakes them: over ten runs on a
// 2-CPU VM its quartiles lay a fifth of the median apart. Two streams keep
// both CPUs busy. Its 8192 sites make an open mostly header decode; with
// 2000 the 1.5 ms open was mostly those same hand-offs and spread as widely.
var workloads = []workload{
	{
		name:   "stream-sparse",
		why:    "two clients stream a long race-sparse trace with wcp: detection is cheap, so chunk decode, ingest, HTTP and proxy overhead dominate",
		shape:  shape{Threads: 4, Locks: 8, Vars: 64, Sites: 8192, Groups: 1, RaceProb: 0.0005, MaxCS: 4},
		events: 1_500_000, pool: 1, clients: 2, engines: []string{"wcp"},
	},
	{
		name:   "stream-dense",
		why:    "one race-dense wcp+hb stream: pair tracking and report rendering dominate, chunk overhead is a small share",
		shape:  shape{Threads: 8, Locks: 8, Vars: 256, Sites: 8192, Groups: 1, RaceProb: 0.30, MaxCS: 4},
		events: 600_000, pool: 1, clients: 1, engines: []string{"wcp", "hb"},
	},
	{
		name:   "fleet-sessions",
		why:    "two clients looping over short T=256 pool traces with a big site table: session open, finish and journal work dominate",
		shape:  shape{Threads: 256, Locks: 64, Vars: 512, Sites: 20000, Groups: 32, RaceProb: 0.001, MaxCS: 4},
		events: 40_000, pool: 8, clients: 2, engines: []string{"wcp"},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// want is one engine's batch-analysis reference for a trace.
type want struct {
	distinct, racy int
	report         string
}

// refResults analyzes tr in batch with each engine: the oracle every served
// session is held to.
func refResults(tr *trace.Trace, engines []string) []want {
	out := make([]want, len(engines))
	for i, name := range engines {
		res := engine.MustNew(name, engine.Config{}).Analyze(tr)
		out[i] = want{distinct: res.Distinct(), racy: res.RacyEvents, report: res.Report.Format(tr.Symbols)}
	}
	return out
}

// input is one trace the clients stream, with its reference results.
type input struct {
	tr   *trace.Trace
	want []want
}

// check holds a finished session to the batch reference: event count,
// distinct pairs, racy events and the rendered report byte for byte.
func (in *input) check(engines []string, fin *client.FinishResult) error {
	if fin.Events != uint64(len(in.tr.Events)) {
		return fmt.Errorf("session saw %d events, want %d", fin.Events, len(in.tr.Events))
	}
	if len(fin.Results) != len(in.want) {
		return fmt.Errorf("%d engine results, want %d", len(fin.Results), len(in.want))
	}
	for i, w := range in.want {
		got := fin.Results[i]
		switch {
		case got.Engine != engines[i] || got.Error != "":
			return fmt.Errorf("engine %d: %q error %q, want %s", i, got.Engine, got.Error, engines[i])
		case got.Distinct != w.distinct || got.RacyEvents != w.racy:
			return fmt.Errorf("%s: distinct=%d racy=%d, want distinct=%d racy=%d",
				engines[i], got.Distinct, got.RacyEvents, w.distinct, w.racy)
		case got.Report != w.report:
			return fmt.Errorf("%s: report differs from batch analysis", engines[i])
		}
	}
	return nil
}

// tally accumulates one phase of client operations.
type tally struct {
	mu                  sync.Mutex
	open, chunk, finish []float64 // milliseconds
	attempted, failed   int
	mismatched          int // finished sessions whose results differ from the reference
	sessions            int
	events              uint64
	first, last         time.Time
	walls               time.Duration // set by combine
	errs                []string
	stateMax            int64
	queueMax            int
	heapMax             uint64
}

func (t *tally) op(lat *[]float64, d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.fail(err)
		return
	}
	*lat = append(*lat, ms(d))
}

// fail counts a failed operation; the caller holds mu.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// wall is the time from the phase's first open to its last finish; for a
// combined tally, the sum of its phases' walls.
func (t *tally) wall() time.Duration { return t.last.Sub(t.first) + t.walls }

// combine folds phases, in order, into one tally whose rates leave out the
// time between them.
func combine(ts ...*tally) *tally {
	c := &tally{}
	for _, t := range ts {
		c.open = append(c.open, t.open...)
		c.chunk = append(c.chunk, t.chunk...)
		c.finish = append(c.finish, t.finish...)
		c.attempted += t.attempted
		c.failed += t.failed
		c.mismatched += t.mismatched
		c.sessions += t.sessions
		c.events += t.events
		c.walls += t.wall()
		c.errs = append(c.errs, t.errs...)
		c.stateMax = max(c.stateMax, t.stateMax)
		c.queueMax = max(c.queueMax, t.queueMax)
		c.heapMax = max(c.heapMax, t.heapMax)
	}
	return c
}

// session runs one closed-loop session: open, every chunk, finish, check.
// Spans go to tr under prefix (client, ladder.inproc, ...).
func session(ctx context.Context, cfg client.Config, engines []string, in *input, t *tally, tr *tracer, prefix string) {
	start := time.Now()
	a := tr.start(prefix+".open", "", 0)
	s, err := client.Open(withParent(ctx, a.id()), cfg, in.tr.Symbols)
	if a != nil && s != nil {
		a.sp.Session = s.Trace()
	}
	a.end(0)
	t.op(&t.open, time.Since(start), err)
	if err != nil {
		return
	}
	t.mu.Lock()
	if t.first.IsZero() || start.Before(t.first) {
		t.first = start
	}
	t.mu.Unlock()

	evs := in.tr.Events
	for off := 0; off < len(evs); off += cfg.ChunkEvents {
		end := min(off+cfg.ChunkEvents, len(evs))
		a := tr.start(prefix+".stream", s.Trace(), 0)
		c0 := time.Now()
		err := s.Stream(withParent(ctx, a.id()), evs[off:end], uint64(off))
		a.end(end - off)
		t.op(&t.chunk, time.Since(c0), err)
		if err != nil {
			s.Abort(ctx)
			return
		}
	}

	a = tr.start(prefix+".finish", s.Trace(), 0)
	f0 := time.Now()
	fin, err := s.Finish(withParent(ctx, a.id()))
	a.end(0)
	now := time.Now()
	t.op(&t.finish, now.Sub(f0), err)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cerr := in.check(engines, fin); cerr != nil {
		t.mismatched++
		t.fail(fmt.Errorf("session %s: %w", s.ID(), cerr))
		return
	}
	t.sessions++
	t.events += s.Acked()
	if now.After(t.last) {
		t.last = now
	}
}

// runner drives a workload's clients against one fleet.
type runner struct {
	w       *workload
	inputs  []*input
	fleet   *benchFleet
	tr      *tracer
	retries atomic.Int64 // client retry attempts, counted from the Logf hook
	seed    uint64
	phases  uint64
	probes  uint64 // opens made by openProbe so far
}

// clientConfig is the client as a recording process would configure it:
// only the base URL and engines set, every other knob at its default.
func (r *runner) clientConfig(base string) client.Config {
	cfg := client.Config{
		BaseURL:     base,
		Engines:     r.w.engines,
		ChunkEvents: 4096,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "retrying in") {
				r.retries.Add(1)
			}
		},
	}
	if r.tr != nil {
		cfg.HTTPClient = &http.Client{Transport: transport{t: r.tr, name: "client.http", base: http.DefaultTransport}}
	}
	return cfg
}

// phase runs every client's closed loop until d has elapsed (the session in
// flight at the deadline completes) while sampling fleet load and heap.
func (r *runner) phase(d time.Duration) *tally {
	t := &tally{}
	r.phases++
	stop := make(chan struct{})
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			state, queue := r.fleet.load()
			metrics.Read(heap)
			t.mu.Lock()
			t.stateMax = max(t.stateMax, state)
			t.queueMax = max(t.queueMax, queue)
			t.heapMax = max(t.heapMax, heap[0].Value.Uint64())
			t.mu.Unlock()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	deadline := time.Now().Add(d)
	cfg := r.clientConfig(r.fleet.url)
	var clients sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			rng := rand.New(rand.NewPCG(r.seed, r.phases<<8|uint64(c)))
			for time.Now().Before(deadline) {
				session(context.Background(), cfg, r.w.engines, r.inputs[rng.IntN(len(r.inputs))], t, r.tr, "client")
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	sampling.Wait()
	return t
}

// measure runs the timed phase d as rounds of a closed-loop phase of
// d/rounds, each followed by its share of probes serial opens (openProbe).
// Spreading the probes over the run keeps a burst of load from neighbours
// on the machine, or a run of garbage collections, from landing on all of
// them, and per-round rates let the run report medians. The probe count is
// fixed, not a share of the time: every open and abort is a journal record,
// and past 1024 records the coordinator compacts its journal, rewriting
// every cached finish reply. On stream-dense those are large reports: with
// ~1200 probes a run, the compactions' timing spread its heap_peak_mb over
// a quarter of the median between quartiles of ten runs.
func (r *runner) measure(d time.Duration, rounds, probes int) (loops, opens []*tally) {
	for i := 0; i < rounds; i++ {
		loops = append(loops, r.phase(d/time.Duration(rounds)))
		opens = append(opens, r.openProbe(probes*(i+1)/rounds-probes*i/rounds))
	}
	return loops, opens
}

// openProbe times n opens made one at a time by a single client, each
// session aborted at once, cycling through the workload's traces. The closed
// loop opens too few sessions on a long stream (one per 1.5M events) and, on
// fleet-sessions, opens that race the other client's chunks, so its open
// median swings from run to run; serial probes on the warm fleet time the
// same path — header upload and decode, detector sizing, placement and the
// journal append — with enough samples for a steady median.
func (r *runner) openProbe(n int) *tally {
	t := &tally{}
	cfg := r.clientConfig(r.fleet.url)
	ctx := context.Background()
	var aborts []float64
	for i := 0; i < n; i++ {
		o0 := time.Now()
		s, err := client.Open(ctx, cfg, r.inputs[r.probes%uint64(len(r.inputs))].tr.Symbols)
		r.probes++
		t.op(&t.open, time.Since(o0), err)
		if err != nil {
			continue
		}
		a0 := time.Now()
		err = s.Abort(ctx)
		t.op(&aborts, time.Since(a0), err)
	}
	return t
}
