package router_test

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"energysched/internal/obs"
	"energysched/internal/router"
)

// TestRouterMetricsEndpoint asserts the router's GET /metrics serves
// parseable exposition carrying the core routing families.
func TestRouterMetricsEndpoint(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	postSolve(t, c, solveBody(3))

	resp, err := http.Get(c.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	exp, err := obs.ParseExposition(readAll(t, resp))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, name := range []string{
		"energyrouter_requests_total",
		"energyrouter_proxied_total",
		"energyrouter_hedges_fired_total",
		"energyrouter_backend_healthy",
		"energyrouter_request_duration_seconds",
		"go_goroutines",
		"obs_traces_total",
	} {
		if !exp.HasFamily(name) {
			t.Errorf("missing core family %q", name)
		}
	}
	// One healthy sample per backend.
	if n := exp.Samples["energyrouter_backend_healthy"]; n != 2 {
		t.Errorf("energyrouter_backend_healthy has %d samples, want 2", n)
	}
}

// TestRouterRequestTracing drives one solve and one job submit through
// the cluster and follows each request's identity across both hops:
// the router assigns the trace ID, its attempt span records the picked
// backend, breaker state and status, and the backend's own trace
// carries the same ID with the router's span as parent — the join
// /debug/traces exists for. Job requests run the same failover chain
// as solves, so they are traced the same way.
func TestRouterRequestTracing(t *testing.T) {
	c, err := router.NewTestCluster(2, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.TraceSeed = 7
		// Hedging off so exactly one leg runs and the backend's parent
		// span is deterministic.
		cfg.DisableHedging = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
		// backendSpan is a span the serving backend's trace must hold,
		// empty when the endpoint records none of its own.
		backendSpan string
	}{
		{"solve", "/v1/solve", solveBody(5), http.StatusOK, "cache.lookup"},
		{"job submit", "/v1/jobs", jobBody(5), http.StatusAccepted, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(c.URL()+tc.path, "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			readAll(t, resp)
			resp.Body.Close()
			backend := resp.Header.Get("X-Backend")
			id := resp.Header.Get("X-Request-Id")
			if resp.StatusCode != tc.status || len(id) != 16 {
				t.Fatalf("status %d, X-Request-Id %q (want %d and a 16-hex generated ID)", resp.StatusCode, id, tc.status)
			}

			var routerTraces struct {
				Service string            `json:"service"`
				Traces  []obs.TraceRecord `json:"traces"`
			}
			getJSON(t, c.URL()+"/debug/traces", &routerTraces)
			if routerTraces.Service != "energyrouter" {
				t.Fatalf("service = %q, want energyrouter", routerTraces.Service)
			}
			rec := findTrace(routerTraces.Traces, id)
			if rec == nil {
				t.Fatalf("router ring has no trace %q", id)
			}
			attempt := 0
			wantStatus := "status " + strconv.Itoa(tc.status)
			for _, sp := range rec.Spans {
				if sp.Name == "attempt" {
					attempt = sp.ID
					if !strings.Contains(sp.Note, backend) || !strings.Contains(sp.Note, "breaker=closed") || !strings.Contains(sp.Note, wantStatus) {
						t.Errorf("attempt span note %q, want backend %q, breaker state and %q", sp.Note, backend, wantStatus)
					}
				}
			}
			if attempt == 0 {
				t.Fatalf("router trace %q has no attempt span: %+v", id, rec.Spans)
			}

			// The serving backend saw the propagated ID and the attempt
			// span as its parent.
			var backendTraces struct {
				Traces []obs.TraceRecord `json:"traces"`
			}
			getJSON(t, backend+"/debug/traces", &backendTraces)
			brec := findTrace(backendTraces.Traces, id)
			if brec == nil {
				t.Fatalf("backend %s has no trace %q — X-Request-Id did not propagate", backend, id)
			}
			if want := strconv.Itoa(attempt); brec.Parent != want {
				t.Errorf("backend trace parentSpan = %q, want %q (the router's attempt span)", brec.Parent, want)
			}
			if tc.backendSpan == "" {
				return
			}
			for _, sp := range brec.Spans {
				if sp.Name == tc.backendSpan {
					return
				}
			}
			t.Errorf("backend trace has no %s span: %+v", tc.backendSpan, brec.Spans)
		})
	}
}

// findTrace returns the trace with ID id in traces, nil when absent.
func findTrace(traces []obs.TraceRecord, id string) *obs.TraceRecord {
	for i := range traces {
		if traces[i].ID == id {
			return &traces[i]
		}
	}
	return nil
}
