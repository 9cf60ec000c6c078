package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energysched/internal/obs"
	"energysched/internal/router"
)

// routerCounters is the /stats subset the response-cache tests read:
// the router's own counters and the per-backend proxied counts.
type routerCounters struct {
	Router struct {
		Proxied   int64 `json:"proxied"`
		CacheHits int64 `json:"cacheHits"`
	} `json:"router"`
	Resilience struct {
		Failovers   int64 `json:"failovers"`
		HedgesFired int64 `json:"hedgesFired"`
		HedgesWon   int64 `json:"hedgesWon"`
	} `json:"resilience"`
	Backends []struct {
		Proxied int64 `json:"proxied"`
	} `json:"backends"`
}

func scrapeRouter(t *testing.T, c *router.TestCluster) routerCounters {
	t.Helper()
	var s routerCounters
	getJSON(t, c.URL()+"/stats", &s)
	return s
}

// backendProxied sums the per-backend proxied counters.
func (s routerCounters) backendProxied() int64 {
	n := int64(0)
	for _, b := range s.Backends {
		n += b.Proxied
	}
	return n
}

// TestResponseCacheHitReachesNoBackend: an exact repeat is answered by
// the router without any backend request, and keeps being answered
// with every backend down and evicted, while a body the cache does not
// hold gets the 503.
func TestResponseCacheHitReachesNoBackend(t *testing.T) {
	c, err := router.NewTestCluster(2, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.FailAfter = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, first, backend := postSolve(t, c, solveBody(7))
	if resp.StatusCode != http.StatusOK || backend == "router-cache" {
		t.Fatalf("first solve: status %d from %q", resp.StatusCode, backend)
	}
	before := scrapeRouter(t, c)

	resp, again, backend := postSolve(t, c, solveBody(7))
	if resp.StatusCode != http.StatusOK || backend != "router-cache" || !bytes.Equal(again, first) {
		t.Fatalf("repeat: status %d from %q, same bytes %v; want 200 from router-cache", resp.StatusCode, backend, bytes.Equal(again, first))
	}
	after := scrapeRouter(t, c)
	if after.Router.Proxied != before.Router.Proxied || after.backendProxied() != before.backendProxied() {
		t.Errorf("router hit reached a backend: proxied %d → %d, backend proxied %d → %d",
			before.Router.Proxied, after.Router.Proxied, before.backendProxied(), after.backendProxied())
	}
	if got := after.Router.CacheHits - before.Router.CacheHits; got != 1 {
		t.Errorf("router.cacheHits moved by %d, want 1", got)
	}

	for i := range c.Backends {
		c.SetBackendDown(i, true)
	}
	c.Router.ProbeOnce(context.Background())
	if c.Router.Healthy(0) || c.Router.Healthy(1) {
		t.Fatal("members still healthy after failing probes with FailAfter=1")
	}
	resp, dark, backend := postSolve(t, c, solveBody(7))
	if resp.StatusCode != http.StatusOK || backend != "router-cache" || !bytes.Equal(dark, first) {
		t.Fatalf("repeat with every backend down: status %d from %q (%s); want the cached 200", resp.StatusCode, backend, dark)
	}
	if resp, body, _ := postSolve(t, c, solveBody(8)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached body with every backend down: status %d (%s), want 503", resp.StatusCode, body)
	}
}

// scriptedBackend is a one-member pool whose backend answers every
// request with the scripted status and payload and counts what it
// served.
type scriptedBackend struct {
	mu      sync.Mutex
	status  int
	payload string
	calls   atomic.Int64
	srv     *httptest.Server
}

func newScriptedBackend() *scriptedBackend {
	b := &scriptedBackend{}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.calls.Add(1)
		b.mu.Lock()
		status, payload := b.status, b.payload
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(payload))
	}))
	return b
}

func (b *scriptedBackend) script(status int, payload string) {
	b.mu.Lock()
	b.status, b.payload = status, payload
	b.mu.Unlock()
}

// TestResponseCacheStoresOnlyGood200s: a corrupt 200, a non-200 (4xx,
// 500) and a 204 are never remembered — each repeat goes to the backend
// again — while a good 200 is, answering its repeat at the router.
func TestResponseCacheStoresOnlyGood200s(t *testing.T) {
	b := newScriptedBackend()
	defer b.srv.Close()
	rt, err := router.New(router.Config{Backends: []string{b.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i, tc := range []struct {
		name    string
		status  int
		payload string
		cached  bool
	}{
		{"corrupt 200", http.StatusOK, `{"result":{"energy":`, false},
		{"422", http.StatusUnprocessableEntity, `{"error":"infeasible"}`, false},
		{"400", http.StatusBadRequest, `{"error":"bad request"}`, false},
		{"500", http.StatusInternalServerError, `{"error":"internal"}`, false},
		{"204", http.StatusNoContent, ``, false},
		{"good 200", http.StatusOK, `{"result":{"energy":1}}`, true},
	} {
		b.script(tc.status, tc.payload)
		body := solveBody(300 + i)
		for rep := 0; rep < 2; rep++ {
			callsBefore := b.calls.Load()
			resp, err := http.Post(front.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			readAll(t, resp)
			resp.Body.Close()
			fromCache := resp.Header.Get("X-Backend") == "router-cache"
			reached := b.calls.Load() > callsBefore
			if want := tc.cached && rep == 1; fromCache != want || reached == want {
				t.Errorf("%s, request %d: X-Backend %q, reached backend %v; want served by the router cache = %v",
					tc.name, rep+1, resp.Header.Get("X-Backend"), reached, want)
			}
		}
	}
}

// TestResponseCacheSkipsBatchAndJobs: /v1/batch bodies carry
// cache-state flags and jobs live on their backend, so an exact repeat
// of either is proxied, never answered by the router.
func TestResponseCacheSkipsBatchAndJobs(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := []byte(`{"instances":[` + testInstance(400) + `,` + testInstance(401) + `]}`)
	for rep := 0; rep < 2; rep++ {
		before := scrapeRouter(t, c)
		resp, data := postJSON(t, c, "/v1/batch", batch)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backend") == "router-cache" {
			t.Fatalf("batch %d: status %d from %q (%s)", rep+1, resp.StatusCode, resp.Header.Get("X-Backend"), data)
		}
		var out struct {
			CacheHits int `json:"cacheHits"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if want := 2 * rep; out.CacheHits != want {
			t.Errorf("batch %d: cacheHits %d, want %d from the backends' own caches", rep+1, out.CacheHits, want)
		}

		resp, ack, backend := postJobJSON(t, c.URL()+"/v1/jobs", jobBody(402))
		if resp.StatusCode != http.StatusAccepted || backend == "router-cache" {
			t.Fatalf("job submit %d: status %d from %q (%s)", rep+1, resp.StatusCode, backend, ack)
		}
		var a struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(ack, &a); err != nil || a.ID == "" {
			t.Fatalf("job submit %d: ack %s", rep+1, ack)
		}
		final, doc, servedBy := pollJobDone(t, c.URL(), a.ID)
		if final.StatusCode != http.StatusOK || servedBy == "router-cache" {
			t.Fatalf("job poll %d: status %d from %q (%s)", rep+1, final.StatusCode, servedBy, doc)
		}

		after := scrapeRouter(t, c)
		if after.Router.CacheHits != before.Router.CacheHits {
			t.Errorf("round %d: router.cacheHits moved %d → %d on batch and job traffic",
				rep+1, before.Router.CacheHits, after.Router.CacheHits)
		}
		// One batch leg per instance at least, the submit and the poll.
		if got := after.backendProxied() - before.backendProxied(); got < 3 {
			t.Errorf("round %d: backends answered %d requests, want every batch leg, the submit and the poll", rep+1, got)
		}
	}
}

// TestResponseCacheKeysOnExactBytes: two simulate bodies over the same
// instance with different simSeeds share a routing key but never an
// answer — the second is a backend miss, not the first's bytes — and
// each exact repeat gets back its own answer from the router.
func TestResponseCacheKeysOnExactBytes(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bodies := [][]byte{
		[]byte(`{"instance":` + testInstance(500) + `,"trials":20,"simSeed":1}`),
		[]byte(`{"instance":` + testInstance(500) + `,"trials":20,"simSeed":2}`),
	}
	answers := make([][]byte, len(bodies))
	for i, body := range bodies {
		resp, data := postJSON(t, c, "/v1/simulate", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || resp.Header.Get("X-Backend") == "router-cache" {
			t.Fatalf("simulate seed %d: status %d, X-Cache %q, X-Backend %q; want a backend miss",
				i+1, resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Backend"))
		}
		answers[i] = data
	}
	if bytes.Equal(normalizeResponse(t, answers[0]), normalizeResponse(t, answers[1])) {
		t.Fatal("simSeeds 1 and 2 gave the same campaign; the test cannot tell the answers apart")
	}
	for i, body := range bodies {
		resp, data := postJSON(t, c, "/v1/simulate", body)
		if resp.Header.Get("X-Backend") != "router-cache" || !bytes.Equal(data, answers[i]) {
			t.Fatalf("repeat of seed %d: X-Backend %q, own answer %v", i+1, resp.Header.Get("X-Backend"), bytes.Equal(data, answers[i]))
		}
	}
}

// TestResponseCacheHitHeaders: a router hit says so on the wire —
// X-Cache: hit, X-Backend: router-cache — carries the request ID, a
// generated one or the caller's own, and leaves a cache.lookup span
// and no backend attempt in the router's trace.
func TestResponseCacheHitHeaders(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := solveBody(600)
	if resp, data, _ := postSolve(t, c, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", resp.StatusCode, data)
	}

	for _, incoming := range []string{"", "caller-id-7"} {
		req, err := http.NewRequest(http.MethodPost, c.URL()+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if incoming != "" {
			req.Header.Set(obs.RequestIDHeader, incoming)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		resp.Body.Close()
		h := resp.Header
		if resp.StatusCode != http.StatusOK || h.Get("X-Cache") != "hit" || h.Get("X-Backend") != "router-cache" ||
			!strings.HasPrefix(h.Get("Content-Type"), "application/json") {
			t.Fatalf("router hit: status %d, X-Cache %q, X-Backend %q, Content-Type %q",
				resp.StatusCode, h.Get("X-Cache"), h.Get("X-Backend"), h.Get("Content-Type"))
		}
		id := h.Get(obs.RequestIDHeader)
		if (incoming == "" && len(id) != 16) || (incoming != "" && id != incoming) {
			t.Fatalf("router hit X-Request-Id = %q (incoming %q)", id, incoming)
		}

		var traces struct {
			Traces []obs.TraceRecord `json:"traces"`
		}
		getJSON(t, c.URL()+"/debug/traces", &traces)
		rec := findTrace(traces.Traces, id)
		if rec == nil {
			t.Fatalf("router ring has no trace %q", id)
		}
		if len(rec.Spans) != 1 || rec.Spans[0].Name != "cache.lookup" || rec.Spans[0].Note != "hit" {
			t.Fatalf("router hit trace spans %+v, want one cache.lookup hit span", rec.Spans)
		}
	}
}

// TestHedgeWinsOverSlowBackend: with the home backend of a key stalled
// past the hedge delay, a routed request is hedged to the other member,
// the hedge answers first, and the counters and trace say so. The body
// is fresh to the router's response cache, so nothing here depends on
// whether repeats are cached.
func TestHedgeWinsOverSlowBackend(t *testing.T) {
	c, err := router.NewTestCluster(2, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.HedgeAfter = 20 * time.Millisecond
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, _, home := postSolve(t, c, solveBody(700))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d", resp.StatusCode)
	}
	homeIdx := backendIndex(t, c, home)
	c.SetBackendDelay(homeIdx, 500*time.Millisecond)
	before := scrapeRouter(t, c)

	resp, _, served := postSolve(t, c, solveBodyWithTimeout(700, 60000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged solve: status %d", resp.StatusCode)
	}
	if served == home || served == "router-cache" {
		t.Fatalf("hedged solve served by %q, want the other member (home %s stalled)", served, home)
	}
	after := scrapeRouter(t, c)
	if fired, won := after.Resilience.HedgesFired-before.Resilience.HedgesFired, after.Resilience.HedgesWon-before.Resilience.HedgesWon; fired != 1 || won != 1 {
		t.Fatalf("hedgesFired +%d, hedgesWon +%d; want +1, +1", fired, won)
	}
	id := resp.Header.Get(obs.RequestIDHeader)
	var traces struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	getJSON(t, c.URL()+"/debug/traces", &traces)
	rec := findTrace(traces.Traces, id)
	if rec == nil {
		t.Fatalf("router ring has no trace %q", id)
	}
	for _, sp := range rec.Spans {
		if sp.Name == "hedge" && sp.Note == "won" {
			return
		}
	}
	t.Fatalf("hedged solve trace has no winning hedge span: %+v", rec.Spans)
}
