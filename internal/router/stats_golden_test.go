package router_test

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"energysched/internal/router"
)

// TestRouterStatsDocumentGolden pins the whole router GET /stats
// document — every name, nesting level, JSON type and counter value —
// for a two-backend cluster whose second backend is down: probed
// until evicted, then one solve served by the survivor. Backend URLs
// become "<backendN>" placeholders and uptimeSeconds is only checked
// to be a number; decoded trees are compared, so key order is free.
func TestRouterStatsDocumentGolden(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.Router.ProbeOnce(ctx)
	c.SetBackendDown(1, true)
	for i := 0; i < router.DefaultFailAfter; i++ {
		c.Router.ProbeOnce(ctx)
	}
	if c.Router.Healthy(1) {
		t.Fatal("backend 1 still healthy after FailAfter failed probes")
	}
	if resp, body, _ := postSolve(t, c, solveBody(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d (%s)", resp.StatusCode, body)
	}

	resp, err := http.Get(c.URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if _, ok := doc["uptimeSeconds"].(float64); !ok {
		t.Errorf("uptimeSeconds = %#v, want a number", doc["uptimeSeconds"])
	}
	doc["uptimeSeconds"] = "<number>"
	for i := range c.Backends {
		row := doc["backends"].([]any)[i].(map[string]any)
		if row["url"] != c.BackendURL(i) {
			t.Errorf("backends[%d].url = %v, want %s", i, row["url"], c.BackendURL(i))
		}
		row["url"] = "<backend" + strconv.Itoa(i) + ">"
	}

	const golden = `{
  "uptimeSeconds": "<number>",
  "requests": 6, "solved": 1, "simulated": 0, "swept": 0, "errors": 0, "timeouts": 0,
  "inFlight": 0, "queued": 0, "shed": 0, "coalesced": 0,
  "cache": {"hits": 0, "misses": 2, "evictions": 0, "entries": 1, "capacity": 1024},
  "policy": "affinity",
  "router": {"requests": 2, "proxied": 1, "retried": 0, "badGateway": 0, "noBackend": 0, "scattered": 0, "panics": 0,
             "cacheHits": 0},
  "resilience": {"breakerClosed": 0, "breakerHalfOpen": 0, "breakerOpened": 0,
                 "failovers": 0, "hedgesFired": 0, "hedgesWon": 0},
  "backends": [
    {"url": "<backend0>", "healthy": true, "proxied": 1, "outstanding": 0, "probedLoad": 0, "evictions": 0, "readmissions": 0},
    {"url": "<backend1>", "healthy": false, "proxied": 0, "outstanding": 0, "probedLoad": 0, "evictions": 1, "readmissions": 0, "unreachable": true}
  ]
}`
	var want any
	if err := json.Unmarshal([]byte(golden), &want); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if !reflect.DeepEqual(any(doc), want) {
		out, _ := json.MarshalIndent(doc, "", "  ")
		t.Fatalf("router /stats document drifted from the golden; got\n%s", out)
	}
}
