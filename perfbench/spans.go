package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed call recorded by the traced pass: the benchmark wraps
// the calls it makes into each layer (and the handlers and HTTP clients it
// hands the fleet), so no instrumentation lives inside the program.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Session string `json:"session,omitempty"` // the client's per-session trace id
	Name    string `json:"name"`              // layer.kind.op, e.g. fleet.handler.chunk
	Start   int64  `json:"start_ns"`          // since the tracer's origin
	End     int64  `json:"end_ns"`
	Events  int    `json:"events,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing and costs one atomic load per call.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a span that has started and not yet ended; nil when tracing is off.
type active struct {
	t  *tracer
	sp span
}

func (t *tracer) start(name, session string, parent uint64) *active {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &active{t: t, sp: span{
		ID: t.next.Add(1), Parent: parent, Session: session, Name: name,
		Start: int64(time.Since(t.t0)),
	}}
}

func (a *active) id() uint64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

func (a *active) end(events int) {
	if a == nil {
		return
	}
	a.sp.End = int64(time.Since(a.t.t0))
	a.sp.Events = events
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.sp)
	a.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// headerSpan carries the caller's span id across an HTTP hop so the
// callee's span can name its parent.
const headerSpan = "X-Bench-Span"

type spanKey struct{}

// withParent makes id the parent of spans started by calls under ctx.
func withParent(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// opName classifies a session-API request.
func opName(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == "POST" && p == "/sessions":
		return "create"
	case strings.HasSuffix(p, "/chunks"):
		return "chunk"
	case strings.HasSuffix(p, "/finish"):
		return "finish"
	}
	return "other"
}

// transport records a span around each round trip, from the request until
// the caller closes the response body, and passes the span id on.
type transport struct {
	t    *tracer
	name string // e.g. client.http, fleet.forward
	base http.RoundTripper
}

func (st transport) RoundTrip(req *http.Request) (*http.Response, error) {
	a := st.t.start(st.name+"."+opName(req), req.Header.Get(obs.HeaderTrace), parentOf(req.Context()))
	if a == nil {
		return st.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(headerSpan, strconv.FormatUint(a.id(), 10))
	resp, err := st.base.RoundTrip(req)
	if err != nil {
		a.end(0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, a: a}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	a    *active
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.a.end(0) })
	return err
}

// handler records a span around each request h serves, parented on the
// caller's span, and makes it the parent of the calls h makes.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
		a := t.start(layer+"."+opName(r), r.Header.Get(obs.HeaderTrace), parent)
		if a != nil {
			r = r.WithContext(withParent(r.Context(), a.id()))
		}
		h.ServeHTTP(w, r)
		a.end(0)
	})
}

// selfTimes returns, for every span named name, its self time in
// milliseconds: its duration minus what its child spans cover.
func selfTimes(spans []span, name string) []float64 {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(selfTime(s.interval(), children[s.ID])))
		}
	}
	return out
}

// durations returns the durations, in milliseconds, of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
