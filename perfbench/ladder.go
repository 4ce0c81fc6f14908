package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// servedModes are the engine modes the ladder times a detector in, whatever
// the workload serves, so both per-event costs exist on every workload.
var servedModes = []string{"wcp", "hb"}

// rung is one step of the ladder: events it carried and the time their
// chunks took at that layer.
type rung struct {
	name   string
	events int
	busy   time.Duration
	chunks []float64 // per-chunk milliseconds, client-observed (rungs 3 to 5)
}

func (r rung) rate() float64 { return float64(r.events) / r.busy.Seconds() }

// engineRun is what the decode and detector rungs measured.
type engineRun struct {
	decode, encode rung
	detect         rung // decode + the workload's engines
	perEngine      map[string]time.Duration
	headerBytes    int
	headerDecode   []float64 // ms per ReadHeader
	newSession     []float64 // ms per input, the workload's engines summed
	finish         []float64 // ms per input: Finish + Report.Format
	stateMax       int
}

// replayEngines is ladder rungs 1 and 2: every chunk body the client would
// send is decoded as the server decodes it (NewEventStream + NextBlockSoA)
// and fed to a detector session per served mode, with each call timed.
func replayEngines(w *workload, inputs []*input, tr *tracer) (*engineRun, error) {
	er := &engineRun{
		decode: rung{name: "decode"}, encode: rung{name: "encode"}, detect: rung{name: "decode+engine"},
		perEngine: make(map[string]time.Duration),
	}
	served := make(map[string]bool)
	for _, n := range w.engines {
		served[n] = true
	}
	block := trace.NewBlock(traceio.DefaultBlockSize)
	for _, in := range inputs {
		var hb bytes.Buffer
		if err := traceio.WriteHeader(&hb, in.tr.Symbols, 0); err != nil {
			return nil, err
		}
		er.headerBytes = hb.Len()
		var hdr traceio.Header
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			h, err := traceio.ReadHeader(bytes.NewReader(hb.Bytes()))
			if err != nil {
				return nil, err
			}
			er.headerDecode = append(er.headerDecode, ms(time.Since(t0)))
			hdr = h
		}
		d := hdr.Dims()
		sessions := make([]engine.Session, len(servedModes))
		var newSess time.Duration
		for i, name := range servedModes {
			se := engine.MustNew(name, engine.Config{}).(engine.SessionEngine)
			t0 := time.Now()
			sessions[i] = se.NewSession(d.Threads, d.Locks, d.Vars)
			if served[name] {
				newSess += time.Since(t0)
			}
			sessions[i].(engine.CompactableSession).SetCompactPolicy(engine.CompactPolicy{EveryEvents: 1 << 20})
		}
		er.newSession = append(er.newSession, ms(newSess))

		evs := in.tr.Events
		var body bytes.Buffer
		for off := 0; off < len(evs); off += 4096 {
			end := min(off+4096, len(evs))
			body.Reset()
			t0 := time.Now()
			if err := traceio.EncodeEvents(&body, evs[off:end]); err != nil {
				return nil, err
			}
			er.encode.busy += time.Since(t0)
			er.encode.events += end - off

			chunk := tr.start("ladder.chunk", "", 0)
			dec := tr.start("traceio.decode", "", chunk.id())
			t0 = time.Now()
			st := traceio.NewEventStream(bytes.NewReader(body.Bytes()), hdr, uint64(off))
			decT := time.Since(t0)
			dec.end(0)
			var detT time.Duration
			for {
				dec := tr.start("traceio.decode", "", chunk.id())
				t0 := time.Now()
				n, err := st.NextBlockSoA(block)
				decT += time.Since(t0)
				dec.end(n)
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				for i, name := range servedModes {
					sp := tr.start("engine."+name+".process_block", "", chunk.id())
					t0 := time.Now()
					sessions[i].ProcessBlock(block)
					dt := time.Since(t0)
					sp.end(n)
					er.perEngine[name] += dt
					if served[name] {
						detT += dt
					}
				}
			}
			chunk.end(end - off)
			er.decode.busy += decT
			er.decode.events += end - off
			er.detect.busy += decT + detT
			er.detect.events += end - off
			state := 0
			for i, name := range servedModes {
				if served[name] {
					state += sessions[i].(engine.CompactableSession).StateBytes()
				}
			}
			er.stateMax = max(er.stateMax, state)
		}

		var fin time.Duration
		for i, name := range servedModes {
			t0 := time.Now()
			res := sessions[i].Finish()
			report := res.Report.Format(in.tr.Symbols)
			if !served[name] {
				continue
			}
			fin += time.Since(t0)
			for j, n := range w.engines {
				if n == name && (report != in.want[j].report || res.Distinct() != in.want[j].distinct) {
					return nil, fmt.Errorf("ladder %s session differs from batch analysis", name)
				}
			}
		}
		er.finish = append(er.finish, ms(fin))
	}
	return er, nil
}

// inproc is an http.RoundTripper that calls a handler directly: the server
// layer without a network.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// replayServed streams inputs through internal/client against base with the
// given HTTP client, one session at a time: ladder rungs 3 to 5. prefix
// names the spans.
func (r *runner) replayServed(name, base string, hc *http.Client, prefix string) (rung, *tally) {
	cfg := r.clientConfig(base)
	cfg.HTTPClient = hc
	t := &tally{}
	for _, in := range r.inputs {
		session(context.Background(), cfg, r.w.engines, in, t, r.tr, prefix)
	}
	rg := rung{name: name, chunks: t.chunk, events: int(t.events)}
	for _, c := range t.chunk {
		rg.busy += time.Duration(c * 1e6)
	}
	return rg, t
}

// ladder holds the five rungs plus the spans the layer metrics come from.
type ladder struct {
	engines                 *engineRun
	inproc, loopback, fleet rung
	inprocSpans             []span
	tallies                 []*tally // client operations of rungs 3 to 5
}

// runLadder replays the workload's inputs down the ladder, innermost first:
// decode, decode+engine, worker handler in process, worker over loopback
// TCP, and the fleet through the coordinator. A workload with one trace
// replays it ladderReps times, rungs interleaved, and keeps each rung's
// fastest pass, so one garbage collection or neighbour does not skew a ratio.
func (r *runner) runLadder(dir string) (*ladder, error) {
	reps := 1
	if len(r.inputs) == 1 {
		reps = ladderReps
	}
	l := &ladder{}
	// Rung 3 runs the worker handler in process, behind its own tracer
	// wrapper; rung 4 the same worker over loopback TCP.
	inprocSrv := server.New(workerConfig("inproc", filepath.Join(dir, "inproc")))
	inprocClient := &http.Client{Transport: inproc{r.tr.handler("ladder.inproc.handler", inprocSrv.Handler())}}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		inprocSrv.Close(ctx)
		os.RemoveAll(filepath.Join(dir, "inproc"))
	}()
	lf := &benchFleet{dir: filepath.Join(dir, "loopback")}
	srv := server.New(workerConfig("loopback", lf.dir))
	lf.workers = []*benchWorker{{srv: srv}}
	defer lf.stop()
	url, err := lf.serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: http.DefaultTransport}

	better := func(best *rung, g rung) {
		if best.events == 0 || g.busy < best.busy {
			*best = g
		}
	}
	for rep := 0; rep < reps; rep++ {
		er, err := replayEngines(r.w, r.inputs, r.tr)
		if err != nil {
			return nil, err
		}
		if l.engines == nil || er.detect.busy < l.engines.detect.busy {
			l.engines = er
		}
		before := len(r.tr.snapshot())
		g, t := r.replayServed("in-process server", "http://inproc", inprocClient, "ladder.inproc")
		if l.inproc.events == 0 || g.busy < l.inproc.busy {
			l.inproc, l.inprocSpans = g, r.tr.snapshot()[before:]
		}
		l.tallies = append(l.tallies, t)
		g, t = r.replayServed("loopback HTTP", url, hc, "ladder.http")
		better(&l.loopback, g)
		l.tallies = append(l.tallies, t)
		// Rung 5: through the coordinator of the running fleet.
		g, t = r.replayServed("fleet", r.fleet.url, hc, "ladder.fleet")
		better(&l.fleet, g)
		l.tallies = append(l.tallies, t)
	}
	return l, nil
}
