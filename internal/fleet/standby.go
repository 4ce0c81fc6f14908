package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/snap"
)

// Warm-standby coordinator: started with StandbyOf pointing at the
// primary, it tails the primary's journal over GET /fleet/journal and
// accepts worker dual-heartbeats passively, so at any moment it holds a
// near-current shadow of placements and membership. While the primary
// answers its journal polls the standby serves the session API 503
// (clients with a coordinator list rotate to the primary); when the
// primary misses its lease the standby takes over — it bumps the fencing
// epoch above anything the primary ever journaled, which workers enforce:
// the old primary's next write is answered 412 and it fences itself.

// standbyState is the tail cursor plus the shadow the tail builds.
type standbyState struct {
	primary string // primary coordinator base URL
	gen     uint64
	off     int64
	shadow  *journalState
	tailed  bool // ever applied journal data (vs. heartbeat-only shadowing)
	lastOK  time.Time
}

func newStandbyState(primary string) *standbyState {
	return &standbyState{primary: primary, shadow: newJournalState(), lastOK: time.Now()}
}

// standbyLoop polls the primary's journal until the lease lapses, then
// promotes this coordinator. Runs only while standbyMode is set.
func (c *Coordinator) standbyLoop() {
	defer close(c.standbyDone)
	tick := c.cfg.LeaseTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		alive := c.pollPrimary()
		now := time.Now()
		if alive {
			c.standby.lastOK = now
			continue
		}
		if now.Sub(c.standby.lastOK) > c.cfg.LeaseTimeout {
			c.takeover()
			return
		}
	}
}

// pollPrimary fetches one round of journal tail. Returns whether the
// primary proved alive. A primary without journaling (404) is alive but
// untailable — the shadow then rests on worker dual-heartbeats alone.
func (c *Coordinator) pollPrimary() bool {
	s := c.standby
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.LeaseTimeout/2)
	defer cancel()
	url := s.primary + "/fleet/journal?gen=" + strconv.FormatUint(s.gen, 10) +
		"&from=" + strconv.FormatInt(s.off, 10)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return true // alive, journaling disabled on the primary
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxJournalBlob))
	if err != nil {
		return false
	}
	gen, _ := strconv.ParseUint(resp.Header.Get(api.HeaderJournalGen), 10, 64)
	next, _ := strconv.ParseInt(resp.Header.Get(api.HeaderJournalNext), 10, 64)
	if gen != s.gen {
		// Compaction on the primary: the payload restarts from the top
		// of the rewritten log, so the shadow rebuilds from scratch.
		s.shadow = newJournalState()
		s.gen = gen
	}
	s.off = next
	if len(data) == 0 {
		return true
	}
	rd := bytes.NewReader(data)
	applied := 0
	for {
		r, rerr := snap.NewReader(rd)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			c.cfg.Logger.Warn("journal tail undecodable, resyncing from scratch", "err", rerr)
			s.shadow = newJournalState()
			s.gen, s.off = 0, 0
			return true // the primary answered; only the decode failed
		}
		if aerr := s.shadow.applyRecord(r); aerr != nil {
			c.cfg.Logger.Warn("journal tail record rejected, resyncing", "err", aerr)
			s.shadow = newJournalState()
			s.gen, s.off = 0, 0
			return true
		}
		applied++
	}
	if applied > 0 {
		s.tailed = true
		c.installShadow(s.shadow)
	}
	return true
}

// installShadow mirrors the tailed journal state into the coordinator's
// own maps so a takeover is instant and GET /fleet answers truthfully
// while still standby. Placements are replaced wholesale (a standby makes
// none of its own); membership merges — dual-heartbeats own lastBeat.
func (c *Coordinator) installShadow(st *journalState) {
	if st.epoch > c.epoch.Load() {
		c.epoch.Store(st.epoch)
	}
	now := time.Now()
	c.mu.Lock()
	fresh := make(map[string]*placement, len(st.placements))
	for id, jp := range st.placements {
		if old := c.placements[id]; old != nil {
			old.worker = jp.worker
			if jp.header != nil {
				old.header = jp.header
			}
			fresh[id] = old
			continue
		}
		fresh[id] = &placement{id: id, worker: jp.worker, header: jp.header}
	}
	c.placements = fresh
	for name, url := range st.workers {
		wk := c.workers[name]
		if wk == nil {
			c.workers[name] = &worker{name: name, url: url, state: workerActive, lastBeat: now}
			c.ring.Add(name)
		} else if url != "" {
			wk.url = url
		}
	}
	c.mu.Unlock()
	for id, body := range st.finished {
		if _, have := c.recallFinished(id); !have {
			c.rememberFinished(id, body)
		}
	}
}

// takeover promotes this standby to primary: bump the fencing epoch above
// everything the old primary journaled, compact the shadow into our own
// journal, give re-registering workers a grace window, and start serving.
// Workers learn the new epoch from their next heartbeat ack and from then
// on answer the old primary's writes 412 — it can no longer move, place,
// or drop anything.
func (c *Coordinator) takeover() {
	t0 := time.Now()
	epoch := c.epoch.Load() + 1
	c.epoch.Store(epoch)
	now := time.Now()
	c.mu.Lock()
	if !c.standby.tailed {
		// No journal was tailable: force every worker to re-register so
		// placements rebuild from their session reports (the epoch rides
		// along too). Their next heartbeat gets 404 and they reconcile.
		c.workers = make(map[string]*worker)
		c.ring = NewRing(c.cfg.Vnodes)
	}
	for _, wk := range c.workers {
		wk.lastBeat = now // fresh deadlines: nobody dies for the primary's sins
	}
	c.recoveringUntil = now.Add(c.cfg.RecoveryGrace)
	sessions := len(c.placements)
	workers := len(c.workers)
	c.mu.Unlock()
	c.standbyMode.Store(false)
	c.record("epoch", epochRec(epoch))
	if c.journal != nil {
		if err := c.journal.compact(c.snapshotState); err != nil {
			c.journalErr("takeover snapshot", err)
		}
	}
	c.takeovers.Add(1)
	c.kickPull()
	c.span(obs.Span{Name: "standby_takeover", Start: t0,
		Duration: time.Since(t0).Seconds(), Events: uint64(sessions)})
	c.cfg.Logger.Warn("standby takeover: primary lease lapsed, assuming the session API",
		"epoch", epoch, "sessions", sessions, "workers", workers,
		"primary", c.standby.primary, "tailed", c.standby.tailed)
}
