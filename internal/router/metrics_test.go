package router_test

import (
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

// TestRouterRequestTracing drives one solve through the cluster and
// follows its identity across both hops: the router assigns the trace
// ID, its attempt span records the picked backend and breaker state,
// and the backend's own trace carries the same ID with the router's
// span as parent — the join /debug/traces exists for.
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

	resp, _, backend := postSolve(t, c, solveBody(5))
	id := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != 200 || len(id) != 16 {
		t.Fatalf("solve: status %d, X-Request-Id %q (want a 16-hex generated ID)", resp.StatusCode, id)
	}

	var routerTraces struct {
		Service string            `json:"service"`
		Traces  []obs.TraceRecord `json:"traces"`
	}
	getJSON(t, c.URL()+"/debug/traces", &routerTraces)
	if routerTraces.Service != "energyrouter" {
		t.Fatalf("service = %q, want energyrouter", routerTraces.Service)
	}
	var rec *obs.TraceRecord
	for i := range routerTraces.Traces {
		if routerTraces.Traces[i].ID == id {
			rec = &routerTraces.Traces[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("router ring has no trace %q", id)
	}
	attempt := 0
	for _, sp := range rec.Spans {
		if sp.Name == "attempt" {
			attempt = sp.ID
			if !strings.Contains(sp.Note, backend) || !strings.Contains(sp.Note, "breaker=closed") || !strings.Contains(sp.Note, "status 200") {
				t.Errorf("attempt span note %q, want backend %q, breaker state and status", sp.Note, backend)
			}
		}
	}
	if attempt == 0 {
		t.Fatalf("router trace %q has no attempt span: %+v", id, rec.Spans)
	}

	// The serving backend saw the propagated ID and the attempt span as
	// its parent.
	var backendTraces struct {
		Service string            `json:"service"`
		Traces  []obs.TraceRecord `json:"traces"`
	}
	getJSON(t, backend+"/debug/traces", &backendTraces)
	var brec *obs.TraceRecord
	for i := range backendTraces.Traces {
		if backendTraces.Traces[i].ID == id {
			brec = &backendTraces.Traces[i]
			break
		}
	}
	if brec == nil {
		t.Fatalf("backend %s has no trace %q — X-Request-Id did not propagate", backend, id)
	}
	if want := strconv.Itoa(attempt); brec.Parent != want {
		t.Errorf("backend trace parentSpan = %q, want %q (the router's attempt span)", brec.Parent, want)
	}
	found := false
	for _, sp := range brec.Spans {
		if sp.Name == "cache.lookup" {
			found = true
		}
	}
	if !found {
		t.Errorf("backend trace has no cache.lookup span: %+v", brec.Spans)
	}
}
