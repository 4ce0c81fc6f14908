package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || !obs.ValidID(a) {
		t.Errorf("bad id %q", a)
	}
	if a == b {
		t.Error("ids must be unique")
	}
}

// TestWriteErrorEnvelope pins the error body byte for byte: with no
// location and no gap it is exactly what a {"error": msg} map encodes to,
// so clients of either daemon read the same bytes.
func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, "unknown session %q", "ab12")
	want := "{\n  \"error\": \"unknown session \\\"ab12\\\"\"\n}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
	if rec.Code != http.StatusNotFound || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("code %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusConflict, Error{Msg: "behind", Events: 42, Gap: true})
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Msg != "behind" || e.Events != 42 || !e.Gap || e.Error() != "behind" {
		t.Errorf("gap envelope decoded as %+v", e)
	}
}

func TestTraceIDFrom(t *testing.T) {
	for hdr, want := range map[string]string{
		"":            "",
		"abc-123_XY":  "abc-123_XY",
		"has space":   "",
		"../etc/pass": "",
	} {
		r := httptest.NewRequest("GET", "/", nil)
		if hdr != "" {
			r.Header.Set(obs.HeaderTrace, hdr)
		}
		if got := TraceIDFrom(r); got != want {
			t.Errorf("TraceIDFrom(%q) = %q, want %q", hdr, got, want)
		}
	}
}
