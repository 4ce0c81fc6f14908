// Package api is raced's wire contract, shared by the worker
// (internal/server), the coordinator (internal/fleet) and the client
// (internal/client): the X-Raced-* header names, the JSON error envelope,
// the JSON reply helpers, and session and trace id minting.
package api

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// Resilient-chunk protocol headers. A client that declares its chunk's
// absolute event offset gets idempotent, exactly-once analysis (replays of
// acknowledged events are skipped); a client that declares a CRC32 gets
// end-to-end integrity — a request corrupted in transit is rejected with
// 422 before it can touch detector state, and the client simply resends
// it. Clients using neither header get the legacy
// append-exactly-once-or-bust behavior.
const (
	// HeaderOffset carries the absolute index of the chunk's first event
	// within the session's trace. On finish it carries the client's
	// acknowledged count, making finish a commit barrier.
	HeaderOffset = "X-Raced-Offset"
	// HeaderCRC carries a decimal CRC32 (IEEE). It covers "<offset>:<body>"
	// when HeaderOffset is present and the bare body otherwise — binding
	// the offset into the checksum means a corrupted offset header can
	// never misalign the replay-skip logic: the server recomputes with the
	// offset it parsed, and any disagreement is a 422.
	HeaderCRC = "X-Raced-Crc32"
)

// Fleet headers.
const (
	// HeaderSessionID, on POST /sessions, names the session to create
	// instead of letting the worker mint an id. The coordinator uses it so
	// consistent-hash placement can be decided from the id before any
	// worker is contacted, and so a failed-over session can be re-created
	// elsewhere under its original identity.
	HeaderSessionID = "X-Raced-Session-Id"
	// HeaderEpoch carries the coordinator's fencing epoch on every
	// worker-bound request. A worker keeps the maximum epoch it has ever
	// seen and answers anything lower with 412 (echoing its fence in this
	// header): a superseded ("zombie") coordinator can never place, feed,
	// or finish a session. Requests without the header (direct
	// single-node clients) are never fenced.
	HeaderEpoch = "X-Raced-Epoch"
	// HeaderWorker is set on coordinator-proxied responses and names the
	// worker currently owning the session, so placement-following clients
	// can send their chunk hot path straight to the worker and re-resolve
	// through the coordinator when the placement moves.
	HeaderWorker = "X-Raced-Worker"
	// HeaderJournalGen and HeaderJournalNext frame the coordinator's
	// journal-tail protocol (GET /fleet/journal): the generation changes
	// on every compaction — a stale generation means "rebuild from the
	// log I just sent you" — and next is the offset to poll from.
	HeaderJournalGen  = "X-Raced-Journal-Gen"
	HeaderJournalNext = "X-Raced-Journal-Next"
)

// Error is the JSON error envelope every raced endpoint answers a failure
// with. Offset and Event locate a decode failure in the request body;
// Gap marks an offset-ahead chunk or finish, and Events then carries the
// acknowledged event count the client should rewind to.
type Error struct {
	Msg    string `json:"error"`
	Offset int64  `json:"offset,omitempty"`
	Event  int64  `json:"event,omitempty"`
	Events uint64 `json:"events,omitempty"`
	Gap    bool   `json:"gap,omitempty"`
}

func (e *Error) Error() string { return e.Msg }

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers with an Error envelope carrying the formatted message.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, Error{Msg: fmt.Sprintf(format, args...)})
}

// TraceIDFrom extracts a well-formed trace id from the request, or "".
// Invalid ids are dropped rather than rejected: tracing is best-effort and
// must never fail a request.
func TraceIDFrom(r *http.Request) string {
	id := r.Header.Get(obs.HeaderTrace)
	if id == "" || !obs.ValidID(id) {
		return ""
	}
	return id
}

// NewID mints a 16-hex-char random id, for sessions and traces alike.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}
