package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/snap"
)

// CoordinatorConfig parameterizes a Coordinator. The zero value picks
// usable defaults.
type CoordinatorConfig struct {
	// HeartbeatTimeout is how long a worker may go without a heartbeat
	// before it is marked suspect and its sessions are failed over.
	// Defaults to 3 seconds.
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the cadence advertised to registering workers.
	// Defaults to HeartbeatTimeout/3.
	HeartbeatEvery time.Duration
	// PullEvery is how often the coordinator pulls session checkpoints
	// from workers — the failover restore source. Defaults to 10 seconds;
	// <0 disables pulling (failover then replays whole streams from the
	// retained create headers).
	PullEvery time.Duration
	// ProxyTimeout bounds each proxied request. Defaults to 2 minutes.
	ProxyTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies. Defaults to 32 MiB.
	MaxBodyBytes int64
	// Vnodes is the virtual-node count per worker on the placement ring.
	Vnodes int
	// NoRebalance disables session migration onto a newly joined worker.
	// By default a joining worker receives the open sessions that hash to
	// it — bounded movement, about 1/N of the fleet's sessions.
	NoRebalance bool
	// HTTPClient issues worker requests; defaults to a keep-alive client.
	HTTPClient *http.Client
	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
	// TraceSpanCap bounds the coordinator's in-memory span ring (see
	// internal/obs.TraceLog). Defaults to obs.DefaultSpanCap.
	TraceSpanCap int

	// JournalDir enables the durable placement journal: every placement
	// create/move/finish, worker membership change, and finished-reply
	// cache entry is appended to <dir>/journal.log (CRC-framed), with
	// pulled checkpoint blobs spilled under <dir>/blobs/. A restarted
	// coordinator replays the journal and resumes proxying in-flight
	// sessions. Empty disables journaling (state dies with the process;
	// worker re-registration still reconstructs placements).
	JournalDir string
	// CompactEvery is how many journal appends accumulate before the log
	// is rewritten as the live state's records. Defaults to 1024.
	CompactEvery int64
	// StandbyOf makes this coordinator a warm standby: it tails the
	// primary coordinator at this base URL (its journal plus worker
	// dual-heartbeats), answers the session API 503, and takes over —
	// bumping the fencing epoch — when the primary misses its lease.
	StandbyOf string
	// LeaseTimeout is how long the standby tolerates failed journal polls
	// before declaring the primary dead and taking over. Defaults to
	// 3x HeartbeatTimeout.
	LeaseTimeout time.Duration
	// RecoveryGrace is the registration grace window entered after a
	// journal-less or corrupt-journal start (and after a standby
	// takeover): placements rebuild from workers' re-register session
	// reports, rebalancing is held off, and /healthz reports
	// "recovering". Defaults to 2x HeartbeatTimeout.
	RecoveryGrace time.Duration
	// FinishedTTL bounds how long a cached finish reply is retained for
	// replayed finishes. Defaults to 10 minutes.
	FinishedTTL time.Duration
	// FinishedMax caps the finish-reply cache entry count. Defaults to
	// 4096.
	FinishedMax int
}

func (c *CoordinatorConfig) fill() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.HeartbeatTimeout / 3
	}
	if c.PullEvery == 0 {
		c.PullEvery = 10 * time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 1024
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 3 * c.HeartbeatTimeout
	}
	if c.RecoveryGrace <= 0 {
		c.RecoveryGrace = 2 * c.HeartbeatTimeout
	}
	if c.FinishedTTL <= 0 {
		c.FinishedTTL = 10 * time.Minute
	}
	if c.FinishedMax <= 0 {
		c.FinishedMax = finishedCacheCap
	}
}

// placement is the coordinator's record of one session: where it lives,
// whether it is mid-move, and everything needed to resurrect it on another
// worker — the latest pulled checkpoint blob and, as the fallback of last
// resort, the retained create request (header bytes + engines) that can
// re-open it empty at offset zero for a full client replay.
type placement struct {
	id      string
	worker  string
	moving  bool
	trace   string // request-trace id from the create, re-attached on failover
	engines string // raw ?engines= value from the create request
	header  []byte // retained create body (binary trace header)
	blob    []byte // latest pulled session checkpoint
	blobAt  time.Time
}

// Coordinator owns session placement across a fleet of raced workers and
// fronts the whole session API: create/chunk/finish/status are proxied to
// the owning worker, /reports is merged across workers, and worker
// heartbeats drive failover. Create with NewCoordinator, serve Handler,
// stop with Close.
type Coordinator struct {
	cfg   CoordinatorConfig
	mux   *http.ServeMux
	start time.Time

	mu         sync.Mutex
	workers    map[string]*worker
	ring       *Ring
	placements map[string]*placement

	// finished caches proxied finish responses so a replayed finish for a
	// session whose placement is gone still gets the identical report.
	// Bounded by FinishedMax entries and FinishedTTL age (entries land in
	// time order, so expiry walks finOrder from the front).
	finMu    sync.Mutex
	finished map[string]finishedEntry
	finOrder []string

	// pendingFailovers counts sessions whose worker is gone and whose
	// restore hasn't landed — the queue that derives the admission
	// Retry-After. pendingMigrations counts graceful moves (drain,
	// rebalance), which never shed admission: their source still serves.
	pendingFailovers  atomic.Int64
	pendingMigrations atomic.Int64

	closed      atomic.Bool
	stop        chan struct{}
	monitorDone chan struct{}
	pullDone    chan struct{}
	moverDone   chan struct{}
	standbyDone chan struct{}
	pullKick    chan struct{}
	moveQ       chan moveSpec

	// Durability & fencing. journal is nil when journaling is disabled.
	// epoch is the monotonic fencing token persisted in the journal and
	// stamped on every worker-bound request; workers reject lower epochs,
	// so a superseded coordinator cannot mutate placements. fenced is set
	// when a worker rejects our epoch: a newer coordinator exists, stop
	// serving and let clients fail over to it. standbyMode is true while
	// tailing a primary (session API answers 503); a takeover flips it.
	journal     *journal
	epoch       atomic.Uint64
	fenced      atomic.Bool
	standbyMode atomic.Bool
	standby     *standbyState

	// recoveringUntil, guarded by mu: nonzero during the registration
	// grace window after a journal-less start or a takeover, while
	// placements rebuild from worker re-register reports.
	recoveringUntil time.Time

	// Observability: the coordinator's own registry (fleet_* families,
	// unlabeled) and span ring. Proxy and failover spans recorded here carry
	// the target worker's name, so a request's trace survives the death of
	// the worker that served it — the coordinator's half of the timeline
	// outlives the worker's.
	reg      *obs.Registry
	trace    *obs.TraceLog
	proxyDur *obs.Histogram

	// counters (registered in newMetrics; fleet_* names are load-bearing)
	proxied          *obs.Counter
	sessionsCreated  *obs.Counter
	sessionsFinished *obs.Counter
	admissionShed    *obs.Counter
	workerFailovers  *obs.Counter
	sessionsFailed   *obs.Counter // sessions failed over (restored elsewhere)
	sessionsMigrated *obs.Counter // graceful moves (drain, rebalance)
	sessionsLost     *obs.Counter // unrecoverable (no blob, no header)
	sessionsAdopted  *obs.Counter
	pullsOK          *obs.Counter
	pullsFailed      *obs.Counter
	reportMerges     *obs.Counter

	journalAppends  *obs.Counter
	journalCompacts *obs.Counter
	journalErrors   *obs.Counter
	journalReplayed *obs.Counter
	finEvictions    *obs.Counter
	forwardRetries  *obs.Counter
	epochRejects    *obs.Counter // our writes rejected by a higher worker fence
	takeovers       *obs.Counter
}

// finishedEntry is one cached finish reply with its insertion time.
type finishedEntry struct {
	body []byte
	at   time.Time
}

// NewCoordinator builds a Coordinator and starts its heartbeat monitor,
// checkpoint-pull loop, and session mover. With JournalDir set it replays
// the durable journal first (resuming in-flight placements), falling back
// to worker-report reconstruction when the journal is missing or corrupt;
// with StandbyOf set it starts as a warm standby tailing that primary.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:         cfg,
		workers:     make(map[string]*worker),
		ring:        NewRing(cfg.Vnodes),
		placements:  make(map[string]*placement),
		finished:    make(map[string]finishedEntry),
		start:       time.Now(),
		stop:        make(chan struct{}),
		monitorDone: make(chan struct{}),
		pullDone:    make(chan struct{}),
		moverDone:   make(chan struct{}),
		standbyDone: make(chan struct{}),
		pullKick:    make(chan struct{}, 1),
		moveQ:       make(chan moveSpec, 1024),
		trace:       obs.NewTraceLog(cfg.TraceSpanCap),
	}
	c.newMetrics()
	c.epoch.Store(1)
	if cfg.JournalDir != "" {
		c.openAndReplayJournal()
	}
	if cfg.StandbyOf != "" {
		c.standbyMode.Store(true)
		c.standby = newStandbyState(cfg.StandbyOf)
		go c.standbyLoop()
	} else {
		close(c.standbyDone)
		c.record("epoch", epochRec(c.epoch.Load())) // persist this incarnation's epoch
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /sessions", c.handleCreateSession)
	c.mux.HandleFunc("GET /sessions/{id}", c.handleSessionStatus)
	c.mux.HandleFunc("POST /sessions/{id}/chunks", c.handleChunk)
	c.mux.HandleFunc("POST /sessions/{id}/finish", c.handleFinish)
	c.mux.HandleFunc("DELETE /sessions/{id}", c.handleAbort)
	c.mux.HandleFunc("GET /sessions/{id}/snapshot", c.handleSessionSnapshot)
	c.mux.HandleFunc("GET /reports", c.handleReports)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /fleet", c.handleFleet)
	c.mux.HandleFunc("POST /fleet/register", c.handleRegister)
	c.mux.HandleFunc("POST /fleet/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /fleet/leave", c.handleLeave)
	c.mux.HandleFunc("GET /fleet/journal", c.handleJournalTail)
	c.mux.HandleFunc("GET /debug/trace/{id}", c.handleDebugTrace)
	c.mux.HandleFunc("GET /debug/sessions/{id}", c.handleDebugSession)
	go c.monitorLoop()
	go c.moverLoop()
	if cfg.PullEvery > 0 {
		go c.pullLoop()
	} else {
		close(c.pullDone)
	}
	return c
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the background loops. In-flight proxied requests are the
// HTTP server's to drain.
func (c *Coordinator) Close(ctx context.Context) error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	for _, done := range []chan struct{}{c.monitorDone, c.pullDone, c.moverDone, c.standbyDone} {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if c.journal != nil {
		c.journal.close()
	}
	return nil
}

// Placements returns a snapshot of session id -> owning worker name.
func (c *Coordinator) Placements() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.placements))
	for id, pl := range c.placements {
		out[id] = pl.worker
	}
	return out
}

// --- durable journal ---

// openAndReplayJournal restores coordinator state from JournalDir. A
// missing journal is a cold start; a corrupt one is quarantined and the
// coordinator enters the registration grace window to rebuild from worker
// re-register reports instead. Called from NewCoordinator before any
// request can arrive, so no locks are needed.
func (c *Coordinator) openAndReplayJournal() {
	t0 := time.Now()
	st, records, ok, err := replayJournal(c.cfg.JournalDir)
	if !ok {
		c.cfg.Logger.Error("journal corrupt, quarantining and rebuilding from worker reports",
			"dir", c.cfg.JournalDir, "err", err, "records_salvaged", records)
		c.journalErrors.Add(1)
		if qerr := quarantineJournal(c.cfg.JournalDir); qerr != nil {
			c.cfg.Logger.Error("journal quarantine failed", "err", qerr)
		}
		st = newJournalState()
		records = 0
	}
	j, jerr := openJournal(c.cfg.JournalDir)
	if jerr != nil {
		// Degrade to journal-less operation: reconstruction still works.
		c.cfg.Logger.Error("journal unavailable, running without durability", "err", jerr)
		c.journalErrors.Add(1)
		return
	}
	c.journal = j
	now := time.Now()
	for name, url := range st.workers {
		c.workers[name] = &worker{name: name, url: url, state: workerActive, lastBeat: now}
		c.ring.Add(name)
	}
	for id, jp := range st.placements {
		pl := &placement{id: id, worker: jp.worker, header: jp.header}
		if blob, err := j.blobs.Get(id); err == nil {
			pl.blob = blob
			pl.blobAt = now
		}
		c.placements[id] = pl
	}
	ids, _ := j.blobs.List() // unreadable: orphans wait for the next replay
	for _, id := range ids {
		if _, live := st.placements[id]; !live {
			_ = j.blobs.Remove(id) // orphaned by a drop journaled before the crash
		}
	}
	for id, body := range st.finished {
		c.finished[id] = finishedEntry{body: body, at: now}
		c.finOrder = append(c.finOrder, id)
	}
	c.epoch.Store(st.epoch + 1) // every incarnation fences its predecessor
	c.journalReplayed.Add(uint64(records))
	if records == 0 {
		// Nothing replayed: either a genuinely fresh install or a lost
		// journal. Both are served by the grace window — with no prior
		// state it only defers rebalancing briefly.
		c.recoveringUntil = now.Add(c.cfg.RecoveryGrace)
	}
	c.span(obs.Span{Name: "journal_replay", Start: t0, Duration: time.Since(t0).Seconds(),
		Events: uint64(records)})
	c.cfg.Logger.Info("journal replayed",
		"records", records, "placements", len(c.placements), "workers", len(c.workers),
		"epoch", c.epoch.Load(), "recovering", !c.recoveringUntil.IsZero())
}

// recovering reports whether the post-restart registration grace window is
// still open.
func (c *Coordinator) recovering() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.recoveringUntil)
}

// record appends one journal record built by enc (one of the *Rec
// encoders). A failed append is counted and logged and the coordinator
// keeps serving — losing the journal degrades restart to worker-report
// reconstruction, which is strictly better than refusing traffic.
func (c *Coordinator) record(what string, enc func(*snap.Writer)) {
	if c.journal == nil {
		return
	}
	if err := c.journal.append(enc); err != nil {
		c.journalErr(what, err)
		return
	}
	c.journalAppends.Add(1)
}

func (c *Coordinator) journalErr(what string, err error) {
	c.journalErrors.Add(1)
	c.cfg.Logger.Error("journal append failed", "record", what, "err", err)
}

// snapshotState captures current coordinator state in journal form, for
// compaction (on the monitor tick and at takeover). It runs under the
// journal lock and takes c.mu and c.finMu inside it; that order is safe
// because every c.record call is made with both released.
func (c *Coordinator) snapshotState() *journalState {
	st := newJournalState()
	st.epoch = c.epoch.Load()
	c.mu.Lock()
	for name, wk := range c.workers {
		if wk.state != workerDead {
			st.workers[name] = wk.url
		}
	}
	for id, pl := range c.placements {
		st.placements[id] = &journalPlacement{worker: pl.worker, header: pl.header}
	}
	c.mu.Unlock()
	c.finMu.Lock()
	for id, e := range c.finished {
		st.finished[id] = e.body
	}
	c.finMu.Unlock()
	return st
}

// maybeCompact rewrites the journal as the live state's records once
// enough appends have accumulated. Called from the monitor loop.
func (c *Coordinator) maybeCompact() {
	if c.journal == nil || c.journal.appendsSinceCompact() < c.cfg.CompactEvery {
		return
	}
	t0 := time.Now()
	if err := c.journal.compact(c.snapshotState); err != nil {
		c.journalErrors.Add(1)
		c.cfg.Logger.Error("journal compaction failed", "err", err)
		return
	}
	c.journalCompacts.Add(1)
	c.span(obs.Span{Name: "journal_compact", Start: t0, Duration: time.Since(t0).Seconds()})
	c.cfg.Logger.Info("journal compacted", "took", time.Since(t0))
}

// handleJournalTail (GET /fleet/journal?gen=G&from=N) serves committed
// journal bytes to a tailing standby. The generation changes on every
// compaction; a stale generation gets the whole log from offset zero so
// the standby rebuilds from scratch.
func (c *Coordinator) handleJournalTail(w http.ResponseWriter, r *http.Request) {
	if c.journal == nil {
		api.WriteError(w, http.StatusNotFound, "journaling disabled")
		return
	}
	gen, _ := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	from, _ := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	data, curGen, next, err := c.journal.readFrom(gen, from)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "journal read: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderJournalGen, strconv.FormatUint(curGen, 10))
	w.Header().Set(api.HeaderJournalNext, strconv.FormatInt(next, 10))
	w.Write(data)
}

// --- helpers ---

// proxyResult is one forwarded request's outcome.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// forward issues one request to a worker and buffers the response. hdr
// entries are set verbatim on the outgoing request. Every request is
// stamped with the coordinator's fencing epoch; a worker holding a higher
// fence answers 412, which marks this coordinator superseded. A transient
// dial failure gets one jittered retry before the error is surfaced (and
// counted as a strike by the caller) — the whole session protocol is
// idempotent, so a duplicate of a request whose response was lost is
// harmless.
func (c *Coordinator) forward(ctx context.Context, method, url string, body []byte, hdr map[string]string) (*proxyResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()
	epoch := strconv.FormatUint(c.epoch.Load(), 10)
	attempt := func() (*proxyResult, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		for k, v := range hdr {
			if v != "" {
				req.Header.Set(k, v)
			}
		}
		req.Header.Set(api.HeaderEpoch, epoch)
		t0 := time.Now()
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
		if err != nil {
			return nil, fmt.Errorf("reading %s %s response: %w", method, url, err)
		}
		c.proxied.Add(1)
		c.proxyDur.ObserveSince(t0)
		return &proxyResult{status: resp.StatusCode, header: resp.Header, body: raw}, nil
	}
	pr, err := attempt()
	if err != nil && ctx.Err() == nil {
		// One jittered retry: a single dropped SYN during a worker GC
		// pause must not start the suspect clock.
		c.forwardRetries.Add(1)
		select {
		case <-time.After(10*time.Millisecond + time.Duration(int64(time.Now().UnixNano())%20)*time.Millisecond):
		case <-ctx.Done():
			return nil, err
		}
		pr, err = attempt()
	}
	if err == nil && pr.status == http.StatusPreconditionFailed {
		c.noteFenced(url, pr)
	}
	return pr, err
}

// noteFenced reacts to a worker rejecting our epoch: a coordinator with a
// higher epoch has taken over. Stop serving — clients fail over to the
// live coordinator — and stop initiating failovers/moves, which would all
// be rejected anyway. The process stays up for observability.
func (c *Coordinator) noteFenced(url string, pr *proxyResult) {
	c.epochRejects.Add(1)
	if !c.fenced.Swap(true) {
		c.cfg.Logger.Error("fenced: a worker holds a higher coordinator epoch; this coordinator is superseded",
			"worker_url", url, "our_epoch", c.epoch.Load(), "worker_fence", pr.header.Get(api.HeaderEpoch))
	}
}

// writeProxied relays a worker response to the client byte for byte. The
// worker's Retry-After rides along untouched — the owning worker derived it
// from its own queue depth, and that number, not a coordinator-side guess,
// is the back-off the client should honor. The owning worker's name is
// attached for placement-following clients.
func (c *Coordinator) writeProxied(w http.ResponseWriter, pr *proxyResult, workerName string) {
	if v := pr.header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	if v := pr.header.Get("Retry-After"); v != "" {
		w.Header().Set("Retry-After", v)
	}
	if workerName != "" {
		if url := c.workerURL(workerName); url != "" {
			w.Header().Set(api.HeaderWorker, url)
		}
	}
	w.WriteHeader(pr.status)
	w.Write(pr.body)
}

func (c *Coordinator) workerURL(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wk := c.workers[name]; wk != nil {
		return wk.url
	}
	return ""
}

// traceFor resolves the effective trace id for a request against a session:
// the id the request carried wins, else the one retained at create time.
func (c *Coordinator) traceFor(r *http.Request, id string) string {
	if tr := api.TraceIDFrom(r); tr != "" {
		return tr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pl := c.placements[id]; pl != nil {
		return pl.trace
	}
	return ""
}

// readBody buffers a capped request body.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// route resolves the request's session to the worker serving it. When
// there is none it answers the request itself: 503 on a standby or fenced
// coordinator, 404 for a session it does not place (unless unplaced, when
// non-nil, answers it), 503 while the session is mid-move.
func (c *Coordinator) route(w http.ResponseWriter, r *http.Request, unplaced func(http.ResponseWriter, string) bool) (id, workerName, workerURL string, ok bool) {
	if c.refuseSessionAPI(w) {
		return "", "", "", false
	}
	id = r.PathValue("id")
	c.mu.Lock()
	pl := c.placements[id]
	moving := false
	if pl != nil {
		workerName, moving = pl.worker, pl.moving
		if wk := c.workers[pl.worker]; wk != nil {
			workerURL = wk.url
		}
	}
	c.mu.Unlock()
	switch {
	case pl == nil:
		if unplaced == nil || !unplaced(w, id) {
			api.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		}
	case moving || workerURL == "":
		api.WriteError(w, http.StatusServiceUnavailable, "session %s is failing over, retry", id)
	default:
		return id, workerName, workerURL, true
	}
	return id, "", "", false
}

// refuseSessionAPI answers session-API traffic 503 when this coordinator
// must not serve it: it is a standby (the primary owns placement) or it
// has been fenced by a successor. Clients configured with a coordinator
// list rotate to the live one on 503.
func (c *Coordinator) refuseSessionAPI(w http.ResponseWriter) bool {
	switch {
	case c.standbyMode.Load():
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "standby coordinator: primary owns the session API")
		return true
	case c.fenced.Load():
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "coordinator superseded (fenced at epoch %d)", c.epoch.Load())
		return true
	}
	return false
}

// admission decides whether a new session may be placed right now. The
// fleet sheds new work before sacrificing in-flight sessions: with a
// failover queue outstanding (or no live worker at all), creation is
// refused with a Retry-After derived from that queue's depth, while chunk
// traffic for existing sessions keeps flowing.
func (c *Coordinator) admission() (shed bool, retryAfter int) {
	pending := int(c.pendingFailovers.Load())
	c.mu.Lock()
	healthy := 0
	for _, wk := range c.workers {
		if wk.alive() {
			healthy++
		}
	}
	c.mu.Unlock()
	if healthy == 0 {
		return true, min(60, 2+pending/4)
	}
	if pending > 0 {
		return true, min(60, 1+pending/4)
	}
	return false, 0
}

// --- session API (proxied) ---

// handleCreateSession places a new session on the ring and proxies the
// create to the owning worker. The coordinator chooses the session id so
// placement is a pure function of (id, ring membership); the create body
// and engines parameter are retained so the session can be rebuilt from
// scratch on another worker if it must fail over before any checkpoint was
// pulled. A worker that refuses (503, draining, or unreachable) degrades
// the routing, not the request: the next worker clockwise is tried.
func (c *Coordinator) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if c.closed.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	if c.refuseSessionAPI(w) {
		return
	}
	if shed, retry := c.admission(); shed {
		c.admissionShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		api.WriteError(w, http.StatusServiceUnavailable,
			"fleet degraded (%d failovers pending): new sessions shed, retry later", c.pendingFailovers.Load())
		return
	}
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	engines := r.URL.Query().Get("engines")
	traceID := api.TraceIDFrom(r)
	id := api.NewID()
	tried := make(map[string]bool)
	for {
		name, url := c.pickWorker(id, tried)
		if name == "" {
			c.admissionShed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(min(60, 2+int(c.pendingFailovers.Load())/4)))
			api.WriteError(w, http.StatusServiceUnavailable, "no worker accepted the session")
			return
		}
		tried[name] = true
		target := url + "/sessions"
		if engines != "" {
			target += "?engines=" + engines
		}
		t0 := time.Now()
		pr, err := c.forward(r.Context(), "POST", target, body, map[string]string{
			api.HeaderSessionID: id,
			obs.HeaderTrace:     traceID,
			"Content-Type":      r.Header.Get("Content-Type"),
			api.HeaderCRC:       r.Header.Get(api.HeaderCRC),
		})
		if err != nil {
			c.noteProxyFailure(name, err)
			continue
		}
		if pr.status == http.StatusServiceUnavailable {
			continue // worker draining: degrade routing to the next on the ring
		}
		if pr.status >= 200 && pr.status < 300 {
			c.mu.Lock()
			c.placements[id] = &placement{id: id, worker: name, trace: traceID, engines: engines, header: body}
			c.mu.Unlock()
			c.record("place", placeRec(id, name, body))
			c.sessionsCreated.Add(1)
			c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_create",
				Worker: name, Start: t0, Duration: time.Since(t0).Seconds()})
			c.cfg.Logger.Info("session placed", "session", id, "worker", name, "trace", traceID)
		}
		c.writeProxied(w, pr, name)
		return
	}
}

// pickWorker walks the ring clockwise from the id's hash, skipping workers
// already tried and anything not alive.
func (c *Coordinator) pickWorker(id string, tried map[string]bool) (name, url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = c.ring.OwnerWhere(id, func(n string) bool {
		wk := c.workers[n]
		return wk != nil && wk.alive() && !tried[n]
	})
	if name == "" {
		return "", ""
	}
	return name, c.workers[name].url
}

// handleChunk proxies one chunk to the owning worker. A session mid-move is
// answered 503 without Retry-After — the move completes in well under a
// second, the client's own jittered backoff is the right cadence. A worker
// that cannot be reached starts failure detection and the client retries
// into the post-failover placement.
func (c *Coordinator) handleChunk(w http.ResponseWriter, r *http.Request) {
	id, name, url, ok := c.route(w, r, nil)
	if !ok {
		return
	}
	body, bok := c.readBody(w, r)
	if !bok {
		return
	}
	traceID := c.traceFor(r, id)
	t0 := time.Now()
	pr, err := c.forward(r.Context(), "POST", url+"/sessions/"+id+"/chunks", body, map[string]string{
		obs.HeaderTrace:  traceID,
		"Content-Type":   r.Header.Get("Content-Type"),
		api.HeaderOffset: r.Header.Get(api.HeaderOffset),
		api.HeaderCRC:    r.Header.Get(api.HeaderCRC),
	})
	if err != nil {
		c.noteProxyFailure(name, err)
		c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_chunk", Worker: name,
			Start: t0, Duration: time.Since(t0).Seconds(), Err: err.Error()})
		api.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable, failover pending: %v", name, err)
		return
	}
	c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_chunk", Worker: name,
		Start: t0, Duration: time.Since(t0).Seconds()})
	c.writeProxied(w, pr, name)
}

// handleFinish proxies the finish and, on success, seals the placement:
// the response is cached so a replayed finish (lost reply, retried through
// a failover) returns the identical report even after the placement is
// gone.
func (c *Coordinator) handleFinish(w http.ResponseWriter, r *http.Request) {
	id, name, url, ok := c.route(w, r, c.replayFinished)
	if !ok {
		return
	}
	traceID := c.traceFor(r, id)
	t0 := time.Now()
	pr, err := c.forward(r.Context(), "POST", url+"/sessions/"+id+"/finish", nil, map[string]string{
		obs.HeaderTrace:  traceID,
		api.HeaderOffset: r.Header.Get(api.HeaderOffset),
	})
	if err != nil {
		c.noteProxyFailure(name, err)
		api.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable, failover pending: %v", name, err)
		return
	}
	if pr.status >= 200 && pr.status < 300 {
		c.rememberFinished(id, pr.body)
		c.record("finish", finishRec(id, pr.body))
		c.dropPlacement(id)
		c.sessionsFinished.Add(1)
		c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_finish", Worker: name,
			Start: t0, Duration: time.Since(t0).Seconds()})
	}
	c.writeProxied(w, pr, name)
}

func (c *Coordinator) handleAbort(w http.ResponseWriter, r *http.Request) {
	id, name, url, ok := c.route(w, r, nil)
	if !ok {
		return
	}
	pr, err := c.forward(r.Context(), "DELETE", url+"/sessions/"+id, nil, nil)
	if err != nil {
		c.noteProxyFailure(name, err)
		api.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable: %v", name, err)
		return
	}
	if (pr.status >= 200 && pr.status < 300) || pr.status == http.StatusNotFound {
		c.dropPlacement(id)
	}
	c.writeProxied(w, pr, name)
}

func (c *Coordinator) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	id, name, url, ok := c.route(w, r, nil)
	if !ok {
		return
	}
	pr, err := c.forward(r.Context(), "GET", url+"/sessions/"+id, nil, nil)
	if err != nil {
		c.noteProxyFailure(name, err)
		api.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable, failover pending: %v", name, err)
		return
	}
	c.writeProxied(w, pr, name)
}

func (c *Coordinator) handleSessionSnapshot(w http.ResponseWriter, r *http.Request) {
	id, name, url, ok := c.route(w, r, nil)
	if !ok {
		return
	}
	pr, err := c.forward(r.Context(), "GET", url+"/sessions/"+id+"/snapshot", nil, nil)
	if err != nil {
		c.noteProxyFailure(name, err)
		api.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable: %v", name, err)
		return
	}
	c.writeProxied(w, pr, name)
}

// --- finish idempotency cache ---

const finishedCacheCap = 4096

func (c *Coordinator) rememberFinished(id string, body []byte) {
	c.finMu.Lock()
	defer c.finMu.Unlock()
	if _, ok := c.finished[id]; !ok {
		c.finOrder = append(c.finOrder, id)
	}
	c.finished[id] = finishedEntry{body: body, at: time.Now()}
	for len(c.finOrder) > c.cfg.FinishedMax {
		delete(c.finished, c.finOrder[0])
		c.finOrder = c.finOrder[1:]
		c.finEvictions.Add(1)
	}
}

// replayFinished answers a finish for a session that is no longer placed
// from the finished-reply cache, and reports whether it could.
func (c *Coordinator) replayFinished(w http.ResponseWriter, id string) bool {
	body, ok := c.recallFinished(id)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
	return ok
}

func (c *Coordinator) recallFinished(id string) ([]byte, bool) {
	c.finMu.Lock()
	defer c.finMu.Unlock()
	e, ok := c.finished[id]
	return e.body, ok
}

// expireFinished drops cached finish replies older than FinishedTTL.
// Entries land in time order, so the scan stops at the first fresh one.
// Called from the monitor loop.
func (c *Coordinator) expireFinished() {
	cutoff := time.Now().Add(-c.cfg.FinishedTTL)
	c.finMu.Lock()
	defer c.finMu.Unlock()
	for len(c.finOrder) > 0 {
		id := c.finOrder[0]
		if e, ok := c.finished[id]; ok && e.at.After(cutoff) {
			break
		}
		delete(c.finished, id)
		c.finOrder = c.finOrder[1:]
		c.finEvictions.Add(1)
	}
}

// --- fleet membership handlers ---

// handleRegister admits a worker into the ring (or welcomes one back). The
// worker's open-session list is reconciled in both directions: sessions the
// coordinator doesn't know are adopted (the coordinator may have restarted),
// and sessions the coordinator has since failed over elsewhere are returned
// as stale for the worker to abort — the split-brain a healed partition
// leaves behind.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	if req.Name == "" || req.URL == "" {
		api.WriteError(w, http.StatusBadRequest, "register: name and url are required")
		return
	}
	// A standby shadows membership (so a takeover starts with fresh
	// heartbeat deadlines) but makes no placement decisions: no adoption,
	// no stale verdicts, no rebalancing — those are the primary's.
	if c.standbyMode.Load() {
		c.mu.Lock()
		wk := c.workers[req.Name]
		if wk == nil {
			wk = &worker{name: req.Name}
			c.workers[req.Name] = wk
		}
		wk.url = req.URL
		wk.state = workerActive
		wk.lastBeat = time.Now()
		wk.load = req.Load
		c.ring.Add(req.Name)
		c.mu.Unlock()
		api.WriteJSON(w, http.StatusOK, registerResponse{
			HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
			Epoch:       c.epoch.Load(),
		})
		return
	}
	// During the post-restart grace window the fleet's fencing epoch may
	// be ahead of the journal-less default: adopt above any fence a
	// re-registering worker reports, or our own writes would be rejected
	// by the fence our predecessor raised.
	if req.Epoch >= c.epoch.Load() && c.recovering() {
		c.epoch.Store(req.Epoch + 1)
		c.record("epoch", epochRec(req.Epoch+1))
		c.cfg.Logger.Info("adopted fencing epoch from worker report",
			"worker", req.Name, "epoch", req.Epoch+1)
	}
	var stale []string
	var adopted []string
	c.mu.Lock()
	wk := c.workers[req.Name]
	if wk == nil {
		wk = &worker{name: req.Name}
		c.workers[req.Name] = wk
	}
	wk.url = req.URL
	wk.state = workerActive
	wk.lastBeat = time.Now()
	wk.load = req.Load
	wk.epoch++
	c.ring.Add(req.Name)
	for _, id := range req.Sessions {
		pl := c.placements[id]
		switch {
		case pl == nil:
			c.placements[id] = &placement{id: id, worker: req.Name}
			adopted = append(adopted, id)
		case pl.worker != req.Name && !pl.moving:
			// Owned elsewhere now: the rejoining worker's copy is stale.
			stale = append(stale, id)
		}
	}
	c.mu.Unlock()
	c.record("worker", workerUpRec(req.Name, req.URL))
	for _, id := range adopted {
		c.record("place", placeRec(id, req.Name, nil))
	}
	if len(adopted) > 0 {
		c.sessionsAdopted.Add(uint64(len(adopted)))
		c.kickPull() // fetch restore blobs for adopted sessions promptly
	}
	c.cfg.Logger.Info("worker registered", "worker", req.Name, "url", req.URL,
		"sessions", len(req.Sessions), "adopted", len(adopted), "stale", len(stale))
	if !c.cfg.NoRebalance && !c.recovering() {
		staleSet := make(map[string]bool, len(stale))
		for _, id := range stale {
			staleSet[id] = true
		}
		c.rebalanceOnto(req.Name, staleSet)
	}
	c.retryStalledFailovers()
	api.WriteJSON(w, http.StatusOK, registerResponse{
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
		Stale:       stale,
		Epoch:       c.epoch.Load(),
	})
}

// handleHeartbeat refreshes a worker's deadline and load. A heartbeat from
// a worker the coordinator has declared dead (or never met) is answered
// 410/404 so the agent re-registers and reconciles.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "heartbeat: %v", err)
		return
	}
	c.mu.Lock()
	wk := c.workers[req.Name]
	var state workerState
	if wk != nil {
		state = wk.state
		if state == workerActive || state == workerDraining {
			wk.lastBeat = time.Now()
			wk.load = req.Load
		}
	}
	c.mu.Unlock()
	switch {
	case wk == nil:
		api.WriteError(w, http.StatusNotFound, "worker %q is not registered", req.Name)
	case state == workerSuspect, state == workerDead:
		api.WriteError(w, http.StatusGone, "worker %q was declared failed; re-register", req.Name)
	default:
		// The ack carries the fencing epoch so every heartbeat cycle
		// propagates a takeover's new epoch to the whole fleet.
		api.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": c.epoch.Load()})
	}
}

// --- observability ---

func (c *Coordinator) fleetSnapshot() ([]workerInfo, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	infos := make([]workerInfo, 0, len(c.workers))
	healthy := 0
	for _, wk := range c.workers {
		if wk.alive() {
			healthy++
		}
		infos = append(infos, workerInfo{
			Name:          wk.name,
			URL:           wk.url,
			State:         wk.state.String(),
			LastBeatMSAgo: now.Sub(wk.lastBeat).Milliseconds(),
			Load:          wk.load,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, healthy
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	infos, healthy := c.fleetSnapshot()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"workers":            infos,
		"healthy":            healthy,
		"placements":         c.Placements(),
		"pending_failovers":  c.pendingFailovers.Load(),
		"pending_migrations": c.pendingMigrations.Load(),
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos, healthy := c.fleetSnapshot()
	status, code := "ok", http.StatusOK
	switch {
	case c.closed.Load():
		status, code = "closing", http.StatusServiceUnavailable
	case c.fenced.Load():
		status, code = "fenced", http.StatusServiceUnavailable
	case c.standbyMode.Load():
		status = "standby"
	case healthy == 0:
		status, code = "no-workers", http.StatusServiceUnavailable
	case c.recovering():
		status = "recovering"
	case c.pendingFailovers.Load() > 0:
		status = "degraded"
	}
	c.mu.Lock()
	sessions := len(c.placements)
	c.mu.Unlock()
	api.WriteJSON(w, code, map[string]any{
		"status":         status,
		"workers":        len(infos),
		"healthy":        healthy,
		"sessions":       sessions,
		"epoch":          c.epoch.Load(),
		"uptime_seconds": time.Since(c.start).Seconds(),
	})
}

// newMetrics wires every fleet-level series into the coordinator's registry.
// The fleet_* names are scraped by smoke scripts and dashboards — they are
// load-bearing, do not rename them. The coordinator's own series stay
// unlabeled; the worker= label belongs exclusively to scraped worker series.
func (c *Coordinator) newMetrics() {
	reg := obs.NewRegistry()
	c.reg = reg
	c.proxied = reg.Counter("fleet_proxied_requests_total", "Requests forwarded to workers.")
	c.sessionsCreated = reg.Counter("fleet_sessions_created_total", "Sessions placed on the ring.")
	c.sessionsFinished = reg.Counter("fleet_sessions_finished_total", "Sessions sealed through the coordinator.")
	c.admissionShed = reg.Counter("fleet_admission_shed_total", "Session creates refused while the fleet was degraded.")
	c.workerFailovers = reg.Counter("fleet_worker_failovers_total", "Workers declared failed.")
	c.sessionsFailed = reg.Counter("fleet_sessions_failed_over_total", "Sessions restored on a survivor after their worker died.")
	c.sessionsMigrated = reg.Counter("fleet_sessions_migrated_total", "Sessions moved gracefully (drain, rebalance).")
	c.sessionsLost = reg.Counter("fleet_sessions_lost_total", "Sessions unrecoverable after failure (no checkpoint or create header held).")
	c.sessionsAdopted = reg.Counter("fleet_sessions_adopted_total", "Sessions adopted from re-registering workers after a coordinator restart.")
	c.pullsOK = reg.Counter("fleet_checkpoint_pulls_total", "Session checkpoints pulled from workers.")
	c.pullsFailed = reg.Counter("fleet_checkpoint_pull_failures_total", "Checkpoint pulls that failed.")
	c.reportMerges = reg.Counter("fleet_report_merges_total", "Merged /reports responses served.")
	c.journalAppends = reg.Counter("fleet_journal_appends_total", "Records appended to the placement journal.")
	c.journalCompacts = reg.Counter("fleet_journal_compactions_total", "Journal rewrites of the live state as records.")
	c.journalErrors = reg.Counter("fleet_journal_errors_total", "Journal writes or replays that failed (durability degraded, service continues).")
	c.journalReplayed = reg.Counter("fleet_journal_replay_records_total", "Journal records replayed at startup.")
	c.finEvictions = reg.Counter("fleet_finished_cache_evictions_total", "Cached finish replies evicted by TTL or capacity.")
	c.forwardRetries = reg.Counter("fleet_forward_retries_total", "Worker requests retried once after a transient dial failure.")
	c.epochRejects = reg.Counter("fleet_epoch_rejects_total", "Worker rejections of this coordinator's fencing epoch (a successor exists).")
	c.takeovers = reg.Counter("fleet_standby_takeovers_total", "Times this coordinator promoted itself from standby to primary.")
	c.proxyDur = reg.Histogram("fleet_proxy_seconds", "Latency of one proxied worker request.", nil)

	reg.GaugeFunc("fleet_workers", "Registered workers.", func() float64 {
		infos, _ := c.fleetSnapshot()
		return float64(len(infos))
	})
	reg.GaugeFunc("fleet_workers_healthy", "Workers with a fresh heartbeat.", func() float64 {
		_, healthy := c.fleetSnapshot()
		return float64(healthy)
	})
	for _, st := range []string{"active", "suspect", "draining", "dead"} {
		st := st
		reg.GaugeFunc("fleet_workers_state", "Workers by lifecycle state.", func() float64 {
			infos, _ := c.fleetSnapshot()
			n := 0
			for _, wi := range infos {
				if wi.State == st {
					n++
				}
			}
			return float64(n)
		}, obs.Label{Key: "state", Value: st})
	}
	reg.GaugeFunc("fleet_sessions_placed", "Sessions with a live placement.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.placements))
	})
	reg.GaugeFunc("fleet_pending_failovers", "Failovers queued but not yet restored.", func() float64 {
		return float64(c.pendingFailovers.Load())
	})
	reg.GaugeFunc("fleet_pending_migrations", "Graceful moves in flight.", func() float64 {
		return float64(c.pendingMigrations.Load())
	})
	reg.GaugeFunc("fleet_uptime_seconds", "Seconds since this coordinator started.", func() float64 {
		return time.Since(c.start).Seconds()
	})
	reg.GaugeFunc("fleet_coordinator_epoch", "This coordinator's fencing epoch (monotonic across incarnations).", func() float64 {
		return float64(c.epoch.Load())
	})
	reg.GaugeFunc("fleet_coordinator_standby", "1 while this coordinator is a warm standby, 0 when primary.", func() float64 {
		if c.standbyMode.Load() {
			return 1
		}
		return 0
	})
}

// handleMetrics serves the coordinator's own registry followed by every live
// worker's scraped registry, each worker's series re-labeled with
// worker="name" and merged per family so the output stays a valid exposition
// (one HELP/TYPE per family even when every worker exports it).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.reg.WritePrometheus(w)

	type scrape struct {
		name string
		url  string
	}
	c.mu.Lock()
	targets := make([]scrape, 0, len(c.workers))
	for _, wk := range c.workers {
		if wk.alive() {
			targets = append(targets, scrape{name: wk.name, url: wk.url})
		}
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	groups := make([][]*obs.ParsedFamily, 0, len(targets))
	for _, t := range targets {
		pr, err := c.forward(r.Context(), "GET", t.url+"/metrics", nil, nil)
		if err != nil || pr.status != http.StatusOK {
			c.cfg.Logger.Warn("worker metrics scrape failed", "worker", t.name, "err", err)
			continue
		}
		fams, err := obs.ParseExposition(pr.body)
		if err != nil {
			c.cfg.Logger.Warn("worker metrics unparseable", "worker", t.name, "err", err)
			continue
		}
		for _, f := range fams {
			f.Inject("worker", t.name)
		}
		groups = append(groups, fams)
	}
	if len(groups) > 0 {
		obs.WriteFamilies(w, obs.MergeFamilies(groups...))
	}
}

// span records one coordinator-side span. The Worker field carries the
// proxied-to worker, so the coordinator's timeline names dead workers long
// after they stop answering.
func (c *Coordinator) span(sp obs.Span) { c.trace.Add(sp) }

// mergedSpans gathers spans for one trace or session across the coordinator
// and every live worker. kind is "trace" or "sessions" (the debug URL path).
func (c *Coordinator) mergedSpans(ctx context.Context, kind, id string, own []obs.Span) []obs.Span {
	spans := own
	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for _, wk := range c.workers {
		if wk.alive() {
			urls = append(urls, wk.url)
		}
	}
	c.mu.Unlock()
	for _, url := range urls {
		pr, err := c.forward(ctx, "GET", url+"/debug/"+kind+"/"+id, nil, nil)
		if err != nil || pr.status != http.StatusOK {
			continue
		}
		var out struct {
			Spans []obs.Span `json:"spans"`
		}
		if json.Unmarshal(pr.body, &out) == nil {
			spans = append(spans, out.Spans...)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	if spans == nil {
		spans = []obs.Span{}
	}
	return spans
}

// handleDebugTrace (GET /debug/trace/{id}) returns the fleet-wide view of
// one request trace: the coordinator's proxy and failover spans plus every
// live worker's retained spans, ordered by start time. Spans proxied to a
// worker that has since died survive here — the coordinator's record is the
// dead worker's obituary.
func (c *Coordinator) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidID(id) {
		api.WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	spans := c.mergedSpans(r.Context(), "trace", id, c.trace.ByTrace(id))
	api.WriteJSON(w, http.StatusOK, map[string]any{"trace": id, "spans": spans})
}

// handleDebugSession (GET /debug/sessions/{id}) is the session-keyed
// equivalent: one session's lifecycle across every worker that ever held it.
func (c *Coordinator) handleDebugSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidID(id) {
		api.WriteError(w, http.StatusBadRequest, "bad session id %q", id)
		return
	}
	spans := c.mergedSpans(r.Context(), "sessions", id, c.trace.BySession(id))
	api.WriteJSON(w, http.StatusOK, map[string]any{"session": id, "spans": spans})
}
