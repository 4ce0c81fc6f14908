package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
)

// workerConfig is a fleet worker as `raced -join ... -checkpoint-dir dir`
// runs it: every knob at raced's flag default.
func workerConfig(name, checkpointDir string) server.Config {
	return server.Config{
		DefaultEngines:     []string{"wcp"},
		Workers:            runtime.GOMAXPROCS(0),
		MaxBodyBytes:       32 << 20,
		MaxSessions:        1024,
		IdleTimeout:        5 * time.Minute,
		IngestTimeout:      time.Minute,
		ObsSampleEvery:     32,
		CheckpointDir:      checkpointDir,
		CheckpointEvery:    30 * time.Second,
		CompactEveryEvents: 1 << 20,
		Name:               name,
	}
}

// coordinatorConfig is `raced -coordinator -journal-dir dir` at raced's
// flag defaults.
func coordinatorConfig(journalDir string) fleet.CoordinatorConfig {
	return fleet.CoordinatorConfig{
		HeartbeatTimeout: 3 * time.Second,
		PullEvery:        10 * time.Second,
		ProxyTimeout:     2 * time.Minute,
		MaxBodyBytes:     32 << 20,
		JournalDir:       journalDir,
	}
}

// benchFleet is one coordinator and its workers, each on its own loopback
// listener in this process, joined the way raced joins them.
type benchFleet struct {
	dir     string
	url     string // the coordinator
	co      *fleet.Coordinator
	workers []*benchWorker
	servers []*http.Server
	serving sync.WaitGroup
}

type benchWorker struct {
	srv   *server.Server
	url   string
	agent *fleet.Agent
}

// serve runs h on a fresh loopback listener until stop.
func (f *benchFleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet brings up a coordinator with a journal and n workers with
// checkpoint directories, all under dir, and waits until every worker has
// registered. A non-nil tracer wraps the coordinator's handler and its
// forwarding client and each worker's handler.
func startFleet(dir string, n int, tr *tracer) (*benchFleet, error) {
	f := &benchFleet{dir: dir}
	cfg := coordinatorConfig(filepath.Join(dir, "journal"))
	var coHandler func(http.Handler) http.Handler = func(h http.Handler) http.Handler { return h }
	wHandler := coHandler
	if tr != nil {
		cfg.HTTPClient = &http.Client{Transport: transport{t: tr, name: "fleet.forward", base: http.DefaultTransport}}
		coHandler = func(h http.Handler) http.Handler { return tr.handler("fleet.handler", h) }
		wHandler = func(h http.Handler) http.Handler { return tr.handler("server.handler", h) }
	}
	f.co = fleet.NewCoordinator(cfg)
	var err error
	if f.url, err = f.serve(coHandler(f.co.Handler())); err != nil {
		f.stop()
		return nil, err
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		srv := server.New(workerConfig(name, filepath.Join(dir, name)))
		w := &benchWorker{srv: srv}
		f.workers = append(f.workers, w)
		if w.url, err = f.serve(wHandler(srv.Handler())); err != nil {
			f.stop()
			return nil, err
		}
		w.agent = fleet.StartAgent(fleet.AgentConfig{
			Coordinator: f.url,
			Advertise:   w.url,
			Name:        name,
			Load: func() fleet.WorkerLoad {
				st := srv.Stats()
				return fleet.WorkerLoad{Sessions: st.Sessions, StateBytes: st.StateBytes, QueueDepth: st.QueueDepth}
			},
			Sessions:  srv.SessionIDs,
			Abort:     srv.AbortSession,
			Epoch:     srv.CoordinatorEpoch,
			NoteEpoch: srv.NoteCoordinatorEpoch,
		})
	}
	if err := f.awaitHealthy(n); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *benchFleet) awaitHealthy(n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st struct {
			Healthy int `json:"healthy"`
		}
		if err := getJSON(f.url+"/fleet", &st); err == nil && st.Healthy == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d workers did not register within 20s", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts every component down, waits for the listeners' goroutines and
// removes the fleet's directories.
func (f *benchFleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, w := range f.workers {
		if w.agent != nil {
			w.agent.Stop()
		}
	}
	// The coordinator's listener is servers[0]: close it, then the
	// coordinator, then the workers, as a fleet shuts down in order.
	for i, hs := range f.servers {
		hs.Close()
		if i == 0 && f.co != nil {
			f.co.Close(ctx)
		}
	}
	f.serving.Wait()
	for _, w := range f.workers {
		w.srv.Close(ctx)
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	os.RemoveAll(f.dir)
}

// load sums the workers' detector state and scheduler backlog.
func (f *benchFleet) load() (stateBytes int64, queueDepth int) {
	for _, w := range f.workers {
		st := w.srv.Stats()
		stateBytes += st.StateBytes
		queueDepth += st.QueueDepth
	}
	return stateBytes, queueDepth
}

// counters scrapes the coordinator's merged /metrics and sums each named
// series over its labels (workers).
func (f *benchFleet) counters(names ...string) (map[string]float64, error) {
	resp, err := http.Get(f.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseExposition(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = 0
	}
	for _, fam := range fams {
		for _, l := range fam.Lines {
			if _, want := out[l.Name]; want {
				v, err := strconv.ParseFloat(l.Value, 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", l.Series(), err)
				}
				out[l.Name] += v
			}
		}
	}
	return out, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New(resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
