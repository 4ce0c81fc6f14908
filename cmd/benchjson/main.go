// Command benchjson runs the scaling and batch-analysis benchmarks with
// memory accounting and writes the results as machine-readable JSON, so the
// performance trajectory (ns/op, B/op, allocs/op, events/s per trace size)
// is comparable across PRs without scraping `go test -bench` output.
//
// Usage:
//
//	benchjson                          # writes BENCH_wcp.json
//	benchjson -out results.json -scales 0.25,1,2
//	benchjson -baseline old.json       # embed a previous run for before/after
//	benchjson -label "PR 3"            # tag the run in the trajectory
//	benchjson -check BENCH_wcp.json    # perf smoke: warn on regressions, exit 0
//	benchjson -check BENCH_wcp.json -out BENCH_wcp.json  # measure once: compare, then rewrite
//
// Every write preserves a trajectory: when the output file already exists,
// its run is folded into the new document's trajectory (a dated events/s
// summary per benchmark), so the file carries the performance history of
// the repository across PRs, not just the latest pair of runs.
//
// -check mode runs the benchmarks and compares events/s against a committed
// baseline file instead of writing: benchmarks slower by more than
// -check-threshold percent print a GitHub-annotation-style warning. The
// exit code stays 0 — the check is a tripwire, not a gate — unless -strict
// is set.
//
// The benchmarks mirror BenchmarkScalingWCP, BenchmarkScalingHB,
// BenchmarkThreadScaling* and BenchmarkBatchAnalysis in bench_test.go: WCP
// and HB whole-trace analysis in the pair-tracking modes the served wcp and
// hb engines run, over the montecarlo workload at several sizes
// (Theorem 3's linearity check), the thread-scaling matrix (T swept at a
// fixed event count, windowed clocks vs the forced-dense baseline, on the
// disjoint-pool shape), and the serial-vs-parallel corpus runner
// comparison. Entries record their thread count and GOMAXPROCS; -check
// compares like-for-like series only. -benchtime bounds per-benchmark
// wall-clock (CI uses 0.3s); -threadscale selects the swept thread counts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vc"
)

var (
	out         = flag.String("out", "BENCH_wcp.json", "output file")
	scales      = flag.String("scales", "0.25,0.5,1,2", "comma-separated montecarlo scales for the scaling benchmarks")
	threadScale = flag.String("threadscale", "8,64,256,1024", "comma-separated thread counts for the thread-scaling benchmarks; empty disables the series")
	benchtime   = flag.String("benchtime", "", "per-benchmark measuring time (testing's -test.benchtime; e.g. 0.3s for CI smoke)")
	baseline    = flag.String("baseline", "", "previous benchjson output to embed as the before side of a before/after record")
	label       = flag.String("label", "", "optional label recorded with this run in the trajectory")
	check       = flag.String("check", "", "perf-smoke mode: compare against this baseline file instead of writing")
	threshold   = flag.Float64("check-threshold", 20, "events/s regression percentage that triggers a -check warning")
	strict      = flag.Bool("strict", false, "exit non-zero when -check finds regressions")
)

// Entry is one benchmark measurement. Threads and GOMAXPROCS pin the series
// dimensions so -check compares like for like: entries whose dimensions
// differ (e.g. a baseline recorded on a different core count) are reported
// as skipped, not as regressions. Zero values (older files) match anything.
type Entry struct {
	Name         string  `json:"name"`
	Events       int     `json:"events"`
	Threads      int     `json:"threads,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs,omitempty"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

// Snapshot is one past run folded into the trajectory: the date, optional
// label, and each benchmark's events/s.
type Snapshot struct {
	Date         string             `json:"date"`
	Label        string             `json:"label,omitempty"`
	EventsPerSec map[string]float64 `json:"events_per_sec"`
}

// maxTrajectory bounds the number of retained past runs.
const maxTrajectory = 50

// Doc is the file layout: environment, current results, optionally the
// embedded previous run for before/after comparisons, and the trajectory of
// earlier runs (newest last).
type Doc struct {
	Date       string     `json:"date"`
	Label      string     `json:"label,omitempty"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	CPUs       int        `json:"cpus"`
	Results    []Entry    `json:"results"`
	Baseline   *Doc       `json:"baseline,omitempty"`
	Trajectory []Snapshot `json:"trajectory,omitempty"`
}

// snapshot summarizes a document for the trajectory.
func (d *Doc) snapshot() Snapshot {
	s := Snapshot{Date: d.Date, Label: d.Label, EventsPerSec: map[string]float64{}}
	for _, e := range d.Results {
		s.EventsPerSec[e.Name] = e.EventsPerSec
	}
	return s
}

// loadDoc reads a benchjson document from path.
func loadDoc(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// measure runs one benchmark. The detector benchmarks are single-threaded,
// so GOMAXPROCS is recorded only on the entries whose results depend on it
// (the batch runner) — a zero matches any baseline in -check.
func measure(name string, events, threads int, bench func(b *testing.B)) Entry {
	res := testing.Benchmark(bench)
	nsOp := float64(res.T.Nanoseconds()) / float64(res.N)
	e := Entry{
		Name:        name,
		Events:      events,
		Threads:     threads,
		Iterations:  res.N,
		NsPerOp:     nsOp,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if events > 0 && nsOp > 0 {
		e.EventsPerSec = float64(events) / (nsOp / 1e9)
	}
	fmt.Printf("%-44s %10d ns/op %14.0f events/s %10d B/op %8d allocs/op\n",
		name, int64(e.NsPerOp), e.EventsPerSec, e.BytesPerOp, e.AllocsPerOp)
	return e
}

func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %w", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad thread count %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func run() error {
	scaleList, err := parseScales(*scales)
	if err != nil {
		return err
	}
	bench, ok := gen.ByName("montecarlo")
	if !ok {
		return fmt.Errorf("montecarlo benchmark missing")
	}

	traces := make([]*trace.Trace, len(scaleList))
	for i, scale := range scaleList {
		traces[i] = bench.Generate(scale)
	}
	var results []Entry
	for _, tr := range traces {
		tr := tr
		results = append(results, measure(
			fmt.Sprintf("ScalingWCP/events_%d", tr.Len()), tr.Len(), tr.NumThreads(),
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.DetectOpts(tr, core.Options{})
				}
			}))
	}
	for _, tr := range traces {
		tr := tr
		results = append(results, measure(
			fmt.Sprintf("ScalingHB/events_%d", tr.Len()), tr.Len(), tr.NumThreads(),
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hb.DetectOpts(tr, hb.Options{})
				}
			}))
	}

	// Thread-scaling series: events fixed, T swept, on the disjoint-pool
	// shape (the daemon-realistic workload; the full shape matrix lives in
	// BenchmarkThreadScaling*). Each T is measured twice — windowed clocks
	// (the default) and the dense-clock baseline (vc.ForceDense) — so the
	// committed file records the representation's before/after at every T.
	tsList, err := parseInts(*threadScale)
	if err != nil {
		return err
	}
	for _, T := range tsList {
		tr := gen.ThreadScaling(gen.ThreadScalingConfig{
			Threads: T, Events: 60_000, Shape: "pools", Races: 4,
		})
		for _, dense := range []bool{false, true} {
			suffix := ""
			if dense {
				suffix = "/dense"
			}
			vc.ForceDense(dense)
			results = append(results, measure(
				fmt.Sprintf("ThreadScalingWCP/pools/T%d%s", T, suffix), tr.Len(), T,
				func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						core.DetectOpts(tr, core.Options{})
					}
				}))
			results = append(results, measure(
				fmt.Sprintf("ThreadScalingHB/pools/T%d%s", T, suffix), tr.Len(), T,
				func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						hb.DetectOpts(tr, hb.Options{})
					}
				}))
			vc.ForceDense(false)
		}
	}

	// Batch analysis: serial vs parallel corpus runner, as in
	// BenchmarkBatchAnalysis (smaller corpus; same shape).
	files := 2 * runtime.GOMAXPROCS(0)
	corpus := make([]engine.Source, files)
	events := 0
	for i := range corpus {
		tr := gen.Random(gen.RandomConfig{Seed: int64(i + 1), Events: 30_000, Threads: 6, Locks: 8, Vars: 24})
		events += tr.Len()
		corpus[i] = engine.TraceSource(fmt.Sprintf("trace-%d", i), tr)
	}
	engines := []engine.Engine{engine.MustNew("wcp", engine.Config{}), engine.MustNew("hb", engine.Config{})}
	drain := func(jobs int) {
		for res := range engine.AnalyzeCorpus(context.Background(), corpus, engines, jobs) {
			if res.Err != nil {
				panic(res.Err)
			}
		}
	}
	total := events * len(engines)
	batch := measure("BatchAnalysis/serial", total, 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drain(1)
		}
	})
	batch.GOMAXPROCS = runtime.GOMAXPROCS(0)
	results = append(results, batch)
	batch = measure(fmt.Sprintf("BatchAnalysis/parallel_j%d", runtime.GOMAXPROCS(0)), total, 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drain(0)
		}
	})
	batch.GOMAXPROCS = runtime.GOMAXPROCS(0)
	results = append(results, batch)

	if *check != "" {
		// One measurement serves both: compare against the baseline, and —
		// when -out was explicitly given too — fall through to write the
		// fresh document from the same run (CI measures once that way).
		err := runCheck(results, *check)
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if err != nil || !outSet {
			return err
		}
	}

	doc := Doc{
		Date:    time.Now().UTC().Format(time.RFC3339),
		Label:   *label,
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.GOMAXPROCS(0),
		Results: results,
	}
	// Fold the previous contents of the output file into the trajectory so
	// the file accumulates the performance history across runs.
	if prev, err := loadDoc(*out); err == nil {
		doc.Trajectory = append(prev.Trajectory, prev.snapshot())
		if n := len(doc.Trajectory); n > maxTrajectory {
			doc.Trajectory = doc.Trajectory[n-maxTrajectory:]
		}
	}
	if *baseline != "" {
		base, err := loadDoc(*baseline)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		base.Baseline = nil // keep one level of history
		base.Trajectory = nil
		doc.Baseline = base
	}
	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks, %d past runs in trajectory)\n", *out, len(results), len(doc.Trajectory))
	return nil
}

// runCheck compares the fresh results against the committed baseline file,
// warning (GitHub annotation format) about benchmarks whose events/s
// regressed by more than the threshold. Non-blocking unless -strict.
func runCheck(results []Entry, path string) error {
	base, err := loadDoc(path)
	if err != nil {
		return fmt.Errorf("reading check baseline: %w", err)
	}
	baseBy := make(map[string]Entry, len(base.Results))
	for _, e := range base.Results {
		baseBy[e.Name] = e
	}
	regressions := 0
	measured := make(map[string]bool, len(results))
	for _, e := range results {
		measured[e.Name] = true
		b, ok := baseBy[e.Name]
		if !ok || b.EventsPerSec <= 0 || e.EventsPerSec <= 0 {
			continue
		}
		// Like-for-like only: a baseline recorded with different series
		// dimensions (thread count, GOMAXPROCS) is not comparable. Zero
		// baseline dimensions (older file formats) match anything.
		if (b.Threads != 0 && b.Threads != e.Threads) ||
			(b.GOMAXPROCS != 0 && b.GOMAXPROCS != e.GOMAXPROCS) {
			fmt.Printf("check %-44s skipped: baseline dims (T=%d, procs=%d) != run dims (T=%d, procs=%d)\n",
				e.Name, b.Threads, b.GOMAXPROCS, e.Threads, e.GOMAXPROCS)
			continue
		}
		delta := 100 * (e.EventsPerSec - b.EventsPerSec) / b.EventsPerSec
		status := "ok"
		if delta < -*threshold {
			regressions++
			status = "REGRESSION"
			fmt.Printf("::warning title=benchjson perf smoke::%s events/s %.0f -> %.0f (%.1f%%), beyond the %.0f%% threshold\n",
				e.Name, b.EventsPerSec, e.EventsPerSec, delta, *threshold)
		}
		fmt.Printf("check %-44s %14.0f -> %14.0f events/s (%+.1f%%) %s\n",
			e.Name, b.EventsPerSec, e.EventsPerSec, delta, status)
	}
	// Baseline benchmarks this run did not measure (e.g. reduced -scales or
	// a different core count) are reported, not silently skipped: the smoke
	// check's coverage gap should be visible in the log.
	for _, e := range base.Results {
		if !measured[e.Name] {
			fmt.Printf("check %-44s not measured in this run (baseline %.0f events/s unguarded)\n",
				e.Name, e.EventsPerSec)
		}
	}
	if regressions > 0 {
		fmt.Printf("benchjson: %d benchmark(s) regressed beyond %.0f%% vs %s (non-blocking)\n", regressions, *threshold, path)
		if *strict {
			return fmt.Errorf("%d perf regression(s)", regressions)
		}
	} else {
		fmt.Printf("benchjson: no regressions beyond %.0f%% vs %s\n", *threshold, path)
	}
	return nil
}

func main() {
	// Register testing's flags before parsing ours so -benchtime can be
	// forwarded to testing.Benchmark.
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -benchtime:", err)
			os.Exit(1)
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
