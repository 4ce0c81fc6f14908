// Command perfbench is the repository's served-path benchmark. It starts an
// in-process fleet — one fleet.Coordinator with a placement journal and two
// server.Server workers with checkpoint directories, joined by
// fleet.StartAgent over loopback TCP, every knob at raced's flag default —
// and drives it through internal/client with closed-loop clients. Every
// finished session is checked byte for byte against batch analysis.
//
//	perfbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// workload untraced and traced, replays the same inputs down a ladder of
// layers (decode, detector, worker handler in process, worker over
// loopback, fleet), and prints the per-layer metrics. Without -workload it
// runs every workload in turn. The last line of each workload's output is
// one JSON object; the exit code is non-zero when any session's result
// differs from the batch reference or any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/traceio"
)

const (
	setupRuns = 5 // setups per run; setup_s is their median
	warmup    = 2 * time.Second
	// The timed phase runs in measureRounds rounds, each a closed-loop phase
	// followed by its share of the openProbes serial opens whose median is
	// open_p50_ms.
	measureRounds = 10
	openProbes    = 400
	nWorkers      = 2
	// ladderReps is how often a one-trace workload is replayed down the
	// ladder; each rung keeps its fastest pass.
	ladderReps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's output: human-readable lines as they come,
// metrics for the closing JSON line.
type report struct {
	res result
}

func (r *report) line(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// set records a metric and prints it; note adds context after the value.
func (r *report) set(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.print(name, v, unit, note)
}

// print shows a value without recording it in the result.
func (r *report) print(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-34s %14.6g %-8s%s\n", name, v, unit, note)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+" (default: all)")
	seed := flag.Uint64("seed", 1, "seed the workload's traces are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for checkpoints, journals and span files")
	flag.Parse()

	var run []*workload
	if *name == "" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		run = append(run, w)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		ok = ok && res.Correct && res.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runWorkload sets the workload up, warms it, measures it and tears it down.
func runWorkload(w *workload, seed uint64, seconds time.Duration, traced bool, workdir string) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &report{res: result{Correct: true, Metrics: make(map[string]metric)}}
	r.line("# perfbench %s seed=%d seconds=%v trace=%v: %s", w.name, seed, seconds.Seconds(), traced, w.why)

	// Set up several times and keep the last: setup_s is the median, so
	// work moved into set-up shows without one slow start skewing it.
	var setups []float64
	var run *runner
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		inputs := make([]*input, w.pool)
		for k := range inputs {
			t := generate(w.shape, w.events, seed*131+uint64(k))
			inputs[k] = &input{tr: t, want: refResults(t, w.engines)}
		}
		f, err := startFleet(filepath.Join(dir, fmt.Sprintf("fleet%d", i)), nWorkers, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if run != nil {
			run.fleet.stop()
		}
		run = &runner{w: w, inputs: inputs, fleet: f, tr: tr, seed: seed}
	}
	defer run.fleet.stop()
	runtime.GC()
	r.line("config %s", fingerprint(w, seed, seconds, traced, run))

	t0 := time.Now()
	wu := run.phase(min(warmup, seconds))
	r.line("warmup_s %.3f s  (%d sessions, not in setup_s)", time.Since(t0).Seconds(), wu.sessions)
	all := []*tally{wu}

	counterNames := []string{"raced_shed_total", "raced_chunks_replayed_total", "fleet_forward_retries_total", "fleet_admission_shed_total"}
	before, err := run.fleet.counters(counterNames...)
	if err != nil {
		return nil, err
	}
	if !traced {
		loops, opens := run.measure(seconds, measureRounds, openProbes)
		all = append(all, loops...)
		all = append(all, opens...)
		endToEnd(r, loops, opens, setups)
	} else {
		// Untraced and traced slices alternate, so drift over the run
		// does not read as tracing overhead.
		var untraced, tracedT []*tally
		for i := 0; i < 2; i++ {
			tr.on.Store(false)
			untraced = append(untraced, run.phase(seconds/4))
			tr.on.Store(true)
			tracedT = append(tracedT, run.phase(seconds/4))
		}
		passSpans := tr.snapshot()
		all = append(all, untraced...)
		all = append(all, tracedT...)
		l, err := run.runLadder(dir)
		if err != nil {
			return nil, err
		}
		perLayer(r, run, untraced, tracedT, passSpans, l)
		all = append(all, l.tallies...)
		spans := filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		r.line("spans %s (%d)", spans, len(tr.snapshot()))
	}
	for _, t := range all {
		r.res.Attempted += t.attempted
		r.res.Failed += t.failed
		r.res.Correct = r.res.Correct && t.mismatched == 0
		for _, e := range t.errs {
			r.line("error: %s", e)
		}
	}

	// Failure and retry accounting, with the program's own counters read
	// from the coordinator's merged /metrics. Every one reads 0 on a healthy
	// run, so they are per-layer metrics, printed on untraced runs too.
	after, err := run.fleet.counters(counterNames...)
	if err != nil {
		return nil, err
	}
	show := r.print
	if traced {
		show = r.set
	}
	for _, c := range []struct{ metric, counter string }{
		{"server.shed", "raced_shed_total"},
		{"server.chunks_replayed", "raced_chunks_replayed_total"},
		{"fleet.forward_retries", "fleet_forward_retries_total"},
		{"fleet.admission_shed", "fleet_admission_shed_total"},
	} {
		show(c.metric, after[c.counter]-before[c.counter], "count", "from /metrics")
	}
	retries := float64(run.retries.Load())
	att := float64(max(r.res.Attempted, 1))
	show("client.retries", retries, "count", "from the client's Logf hook")
	show("ops_failed_frac", float64(r.res.Failed)/att, "ratio", fmt.Sprintf("%d failed of %d attempted", r.res.Failed, r.res.Attempted))
	show("retries_per_op", retries/att, "ratio", "")
	return &r.res, nil
}

// endToEnd prints the metrics a user of the fleet sees from the timed
// closed-loop phases of the measured rounds and the open probes between
// them. Rates are medians over the rounds, so one round slowed by load from
// outside does not move them; latencies are medians over every sample of
// the run.
func endToEnd(r *report, loops, opens []*tally, setups []float64) {
	t, p := combine(loops...), combine(opens...)
	var eps, sps []float64
	for _, l := range loops {
		eps = append(eps, float64(l.events)/l.wall().Seconds())
		sps = append(sps, float64(l.sessions)/l.wall().Seconds())
	}
	r.set("events_per_s", median(eps), "events/s",
		fmt.Sprintf("median over %d rounds; %d events, %d sessions in %.3f s", len(loops), t.events, t.sessions, t.wall().Seconds()))
	q1, q3 := quartiles(t.chunk)
	r.set("chunk_p50_ms", median(t.chunk), "ms", fmt.Sprintf("n=%d, quartiles %.3f..%.3f", len(t.chunk), q1, q3))
	r.tail("chunk_p99_ms", t.chunk, false)
	q1, q3 = quartiles(p.open)
	r.set("open_p50_ms", median(p.open), "ms", fmt.Sprintf("%d serial probes, quartiles %.3f..%.3f; closed loop p50 %.3f, n=%d",
		len(p.open), q1, q3, median(t.open), len(t.open)))
	// Finish latency sits on two fsyncs (report store and journal), whose
	// speed drifts with the host's disk traffic: a per-layer metric.
	r.print("finish_p50_ms", median(t.finish), "ms", fmt.Sprintf("n=%d", len(t.finish)))
	r.tail("finish_p99_ms", t.finish, false)
	r.set("sessions_per_s", median(sps), "1/s", fmt.Sprintf("median over %d rounds", len(loops)))
	r.set("state_mb_peak", float64(t.stateMax)/1e6, "MB", "sum of worker StateBytes, sampled every 10ms")
	r.set("heap_peak_mb", float64(t.heapMax)/1e6, "MB", "heap objects, sampled every 10ms")
	r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d: %s", len(setups), fmtList(setups)))
	r.line("rounds events/s %s", fmtList(eps))
}

// perLayer prints the traced pass's layer metrics and ladder ratios.
func perLayer(r *report, run *runner, untraced, traced []*tally, pass []span, l *ladder) {
	var chunks, finishes []float64
	for _, t := range untraced {
		chunks = append(chunks, t.chunk...)
		finishes = append(finishes, t.finish...)
	}
	r.tail("chunk_p99_ms", chunks, true)
	r.set("finish_p50_ms", median(finishes), "ms", fmt.Sprintf("untraced, n=%d", len(finishes)))
	r.tail("finish_p99_ms", finishes, true)

	e := l.engines
	nsPer := func(d time.Duration, events int) float64 { return float64(d) / float64(events) }
	rate := func(g rung) string { return fmt.Sprintf("%s %.4gM events/s", g.name, g.rate()/1e6) }

	r.set("traceio.decode_ns_per_event", nsPer(e.decode.busy, e.decode.events), "ns", "NewEventStream + NextBlockSoA")
	r.set("traceio.encode_ns_per_event", nsPer(e.encode.busy, e.encode.events), "ns", "client-side EncodeEvents")
	r.set("traceio.header_bytes", float64(e.headerBytes), "count", "")
	r.set("traceio.header_decode_ms", median(e.headerDecode), "ms", fmt.Sprintf("ReadHeader, n=%d", len(e.headerDecode)))
	for _, name := range servedModes {
		r.set("engine."+name+".ns_per_event", nsPer(e.perEngine[name], e.decode.events), "ns", "ProcessBlock self time")
	}
	r.set("engine.new_session_ms", median(e.newSession), "ms", strings.Join(run.w.engines, "+"))
	r.set("engine.finish_ms", median(e.finish), "ms", "Finish + Report.Format")
	r.set("engine.state_bytes", float64(e.stateMax), "bytes", "peak over chunks")

	inprocChunk := sum(durations(l.inprocSpans, "ladder.inproc.handler.chunk"))
	r.set("server.chunk_self_ns_per_event", (inprocChunk*1e6-float64(e.detect.busy))/float64(e.detect.events), "ns",
		"in-process handler minus decode+engine")
	r.set("server.create_ms", median(durations(l.inprocSpans, "ladder.inproc.handler.create")), "ms", "in process")
	r.set("server.finish_ms", median(durations(l.inprocSpans, "ladder.inproc.handler.finish")), "ms", "in process")
	queueMax := 0
	for _, t := range append(untraced, traced...) {
		queueMax = max(queueMax, t.queueMax)
	}
	r.set("server.queue_depth_max", float64(queueMax), "count", "sampled every 10ms")
	r.set("http.chunk_self_ms", median(l.loopback.chunks)-median(l.inproc.chunks), "ms", "loopback minus in-process chunk p50")
	r.set("fleet.proxy_self_ms", median(selfTimes(pass, "fleet.handler.chunk")), "ms", "coordinator handler minus its forward, chunk p50")
	r.set("fleet.open_self_ms", median(selfTimes(pass, "fleet.handler.create")), "ms", "")
	r.set("fleet.finish_self_ms", median(selfTimes(pass, "fleet.handler.finish")), "ms", "")

	r.set("ladder.engine_over_decode", e.decode.rate()/e.detect.rate(), "ratio", rate(e.decode)+" / "+rate(e.detect))
	r.set("ladder.server_tax", e.detect.rate()/l.inproc.rate(), "ratio", rate(e.detect)+" / "+rate(l.inproc))
	r.set("ladder.http_tax", l.inproc.rate()/l.loopback.rate(), "ratio", rate(l.inproc)+" / "+rate(l.loopback))
	r.set("ladder.fleet_tax", l.loopback.rate()/l.fleet.rate(), "ratio", rate(l.loopback)+" / "+rate(l.fleet))
	eps := func(ts []*tally) float64 {
		var events uint64
		var wall time.Duration
		for _, t := range ts {
			events += t.events
			wall += t.wall()
		}
		return float64(events) / wall.Seconds()
	}
	r.set("trace.overhead_frac", 1-eps(traced)/eps(untraced), "ratio",
		fmt.Sprintf("untraced %.4gM events/s, traced %.4gM events/s", eps(untraced)/1e6, eps(traced)/1e6))
}

// tail shows a latency tail by groupedTail, saying at which percentile and
// over how many groups it was taken. The tails swing too far from run to
// run on a shared machine to gate a change, so they are per-layer metrics:
// record says whether this run's result carries them.
func (r *report) tail(name string, xs []float64, record bool) {
	pct, v, groups := groupedTail(xs)
	show := r.print
	if record {
		show = r.set
	}
	show(name, v, "ms", fmt.Sprintf("p%g, the highest percentile with >=10 samples beyond it; median over %d group(s) of n=%d",
		pct, groups, len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// fingerprint records the machine, the inputs and the effective
// configuration of every component as one JSON object.
func fingerprint(w *workload, seed uint64, seconds time.Duration, traced bool, run *runner) string {
	sc := workerConfig("w0", "<dir>/w0")
	cc := coordinatorConfig("<dir>/journal")
	cl := run.clientConfig(run.fleet.url)
	fp := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": gitCommit(), "seed": seed, "workload": w.name, "seconds": seconds.Seconds(), "trace": traced,
		"rounds": measureRounds, "open_probes": openProbes,
		"inputs": map[string]any{
			"shape": w.shape, "events_per_trace": w.events, "traces": w.pool, "clients": w.clients,
			"header_bytes": headerSize(run.inputs[0]), "engines": w.engines,
		},
		"worker": map[string]any{
			"count": nWorkers, "default_engines": sc.DefaultEngines, "workers": sc.Workers, "queue_cap": "4x workers",
			"max_body_bytes": sc.MaxBodyBytes, "max_sessions": sc.MaxSessions, "idle_timeout": sc.IdleTimeout.String(),
			"ingest_timeout": sc.IngestTimeout.String(), "obs_sample_every": sc.ObsSampleEvery,
			"checkpoint_dir": sc.CheckpointDir, "checkpoint_every": sc.CheckpointEvery.String(),
			"compact_every_events": sc.CompactEveryEvents, "state_budget_bytes": sc.StateBudgetBytes,
		},
		"coordinator": map[string]any{
			"heartbeat_timeout": cc.HeartbeatTimeout.String(), "pull_every": cc.PullEvery.String(),
			"proxy_timeout": cc.ProxyTimeout.String(), "max_body_bytes": cc.MaxBodyBytes, "journal_dir": cc.JournalDir,
		},
		"client": clientFingerprint(cl),
	}
	out, err := json.Marshal(fp)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(out)
}

func clientFingerprint(c client.Config) map[string]any {
	return map[string]any{
		"engines": c.Engines, "chunk_events": c.ChunkEvents, "request_timeout": "30s", "retry_budget": 8,
		"backoff": "50ms..5s", "follow_placement": c.FollowPlacement, "base": "coordinator",
	}
}

func headerSize(in *input) int {
	var b strings.Builder
	if err := traceio.WriteHeader(&b, in.tr.Symbols, 0); err != nil {
		return -1
	}
	return b.Len()
}

// gitCommit reads the checkout's HEAD without running git; "unknown" when
// the benchmark runs outside a git work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
