package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"energysched/internal/obs"
	"energysched/internal/server"
)

func newRequest(method, path, body string) *http.Request {
	return httptest.NewRequest(method, path, strings.NewReader(body))
}

func doReq(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestMetricsEndpoint asserts GET /metrics serves parseable exposition
// carrying the core serving families.
func TestMetricsEndpoint(t *testing.T) {
	s := server.New(server.Config{})
	h := s.Handler()
	do(h, "POST", "/v1/solve", `{"instance": `+chainInstance+`}`)

	rec := do(h, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	exp, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, name := range []string{
		"energyschedd_requests_total",
		"energyschedd_cache_hits_total",
		"energyschedd_solve_duration_seconds",
		"energyschedd_inflight",
		"go_goroutines",
		"obs_traces_total",
	} {
		if !exp.HasFamily(name) {
			t.Errorf("missing core family %q", name)
		}
	}
	if exp.Samples["energyschedd_solve_duration_seconds_bucket"] == 0 {
		t.Error("solve-duration histogram has no bucket samples")
	}
}

// TestRequestTracing drives traced requests end to end: ID echo on
// success and error envelopes, honored incoming IDs, and stage spans
// visible at /debug/traces.
func TestRequestTracing(t *testing.T) {
	s := server.New(server.Config{TraceSeed: 11})
	h := s.Handler()

	rec := do(h, "POST", "/v1/solve", `{"instance": `+chainInstance+`}`)
	id := rec.Header().Get("X-Request-Id")
	if rec.Code != 200 || id == "" {
		t.Fatalf("solve: %d, X-Request-Id %q", rec.Code, id)
	}

	// Error envelopes carry the ID too.
	rec = do(h, "POST", "/v1/solve", `not json`)
	if rec.Code != 400 || rec.Header().Get("X-Request-Id") == "" {
		t.Fatalf("error envelope: %d, X-Request-Id %q", rec.Code, rec.Header().Get("X-Request-Id"))
	}

	// Incoming IDs are honored, not regenerated.
	req := newRequest("POST", "/v1/solve", `{"instance": `+chainInstance+`}`)
	req.Header.Set("X-Request-Id", "caller-chosen-1")
	rec = doReq(h, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-chosen-1" {
		t.Fatalf("incoming ID not honored: %q", got)
	}

	rec = do(h, "GET", "/debug/traces", "")
	var payload struct {
		Service string            `json:"service"`
		Total   int64             `json:"total"`
		Traces  []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("traces payload: %v", err)
	}
	if payload.Service != "energyschedd" || payload.Total != 3 {
		t.Fatalf("payload service=%q total=%d, want energyschedd/3", payload.Service, payload.Total)
	}
	// The first trace (oldest) is the cache-miss solve: it must show
	// the lookup and the solver stage.
	first := payload.Traces[len(payload.Traces)-1]
	if first.ID != id {
		t.Fatalf("oldest trace ID %q, want %q", first.ID, id)
	}
	names := map[string]string{}
	for _, sp := range first.Spans {
		names[sp.Name] = sp.Note
	}
	if names["cache.lookup"] != "miss" {
		t.Errorf("solve trace spans = %v, want cache.lookup miss", names)
	}
	if _, ok := names["solve"]; !ok {
		t.Errorf("solve trace spans = %v, want a solve span", names)
	}
	if _, ok := names["marshal"]; !ok {
		t.Errorf("solve trace spans = %v, want a marshal span", names)
	}
}

// TestSimulateProfile asserts the campaign profile rides /v1/simulate
// as a sibling of the deterministic campaign block.
func TestSimulateProfile(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	rec := do(h, "POST", "/v1/simulate", `{"instance": `+chainInstance+`, "trials": 64}`)
	if rec.Code != 200 {
		t.Fatalf("simulate: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Profile *struct {
			TrialsNs       int64 `json:"trialsNs"`
			FastPathTrials int64 `json:"fastPathTrials"`
			HeapTrials     int64 `json:"heapTrials"`
			Workers        int   `json:"workers"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile == nil {
		t.Fatal("response has no profile block")
	}
	if resp.Profile.FastPathTrials+resp.Profile.HeapTrials != 64 {
		t.Fatalf("profile trial split %d+%d != 64",
			resp.Profile.FastPathTrials, resp.Profile.HeapTrials)
	}
	if resp.Profile.Workers < 1 || resp.Profile.TrialsNs <= 0 {
		t.Fatalf("implausible profile %+v", resp.Profile)
	}
}
