package router_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"energysched/internal/router"
)

// postJSON posts body to path on the cluster's router and returns the
// response with its body fully read.
func postJSON(t *testing.T, c *router.TestCluster, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(c.URL()+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := readAll(t, resp)
	return resp, []byte(data)
}

// TestProxySolveCacheHitStaysHome: a solve through the router is a
// cache miss, and a repeat of its instance is a hit on the same backend
// — the per-request view of the affinity guarantee. The routed repeat
// differs from the first body only in timeoutMs, so it keys the same
// backend cache entry but not the router's response cache; the exact
// repeat is then answered by the router itself, with the same bytes.
func TestProxySolveCacheHitStaysHome(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp1, body1, backend1 := postSolve(t, c, solveBody(1))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d (%s)", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first solve X-Cache = %q, want miss", got)
	}

	resp2, body2, backend2 := postSolve(t, c, solveBodyWithTimeout(1, 60000))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second solve X-Cache = %q, want hit", got)
	}
	if backend1 != backend2 {
		t.Fatalf("repeat solve moved backends: %s then %s", backend1, backend2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached solve bytes differ from the original:\n%s\nvs\n%s", body1, body2)
	}

	resp3, body3, backend3 := postSolve(t, c, solveBody(1))
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Cache") != "hit" || backend3 != "router-cache" {
		t.Fatalf("exact repeat: status %d, X-Cache %q, X-Backend %q; want 200 hit router-cache",
			resp3.StatusCode, resp3.Header.Get("X-Cache"), backend3)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatalf("router-cached solve bytes differ from the original:\n%s\nvs\n%s", body1, body3)
	}
}

// TestSimulateColocatedWithSolve: a simulate for an instance routes to
// the backend that solved it, so the embedded solve is a cache hit.
func TestSimulateColocatedWithSolve(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, _, solveBackend := postSolve(t, c, solveBody(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}

	simBody := []byte(`{"instance":` + testInstance(2) + `,"trials":5}`)
	simResp, simBytes := postJSON(t, c, "/v1/simulate", simBody)
	if simResp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d (%s)", simResp.StatusCode, simBytes)
	}
	if got := simResp.Header.Get("X-Backend"); got != solveBackend {
		t.Fatalf("simulate landed on %s, its solve ran on %s", got, solveBackend)
	}
	var sim struct {
		Result   json.RawMessage `json:"result"`
		Campaign json.RawMessage `json:"campaign"`
	}
	if err := json.Unmarshal(simBytes, &sim); err != nil || len(sim.Result) == 0 {
		t.Fatalf("simulate response unusable: %s", simBytes)
	}
}

// TestBatchScatterGather: a batch of distinct instances is split across
// backends and reassembled in input order, one item per input, with
// every per-item result present.
func TestBatchScatterGather(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 9
	items := make([]string, n)
	for i := range items {
		items[i] = testInstance(i + 10)
	}
	body := []byte(`{"instances":[` + strings.Join(items, ",") + `]}`)
	resp, data := postJSON(t, c, "/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", resp.StatusCode, data)
	}
	var out struct {
		Items []struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		} `json:"items"`
		CacheHits int `json:"cacheHits"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("batch response: %v (%s)", err, data)
	}
	if len(out.Items) != n {
		t.Fatalf("batch returned %d items, want %d", len(out.Items), n)
	}
	for i, item := range out.Items {
		if item.Index != i {
			t.Fatalf("items[%d].Index = %d, want %d — gather must restore input order", i, item.Index, i)
		}
		if item.Error != "" {
			t.Fatalf("items[%d] errored: %s", i, item.Error)
		}
		if len(item.Result) == 0 {
			t.Fatalf("items[%d] has no result", i)
		}
	}

	// The 9 distinct instances must actually have scattered: more than
	// one backend served batch traffic.
	var stats struct {
		Router struct {
			Scattered int64 `json:"scattered"`
		} `json:"router"`
	}
	getJSON(t, c.URL()+"/stats", &stats)
	if stats.Router.Scattered == 0 {
		t.Fatal("batch of 9 distinct instances over 3 backends did not scatter")
	}

	// Re-running the same batch is all cache hits, again in order.
	resp2, data2 := postJSON(t, c, "/v1/batch", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat batch: status %d", resp2.StatusCode)
	}
	var out2 struct {
		CacheHits int `json:"cacheHits"`
	}
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.CacheHits != n {
		t.Fatalf("repeat batch cacheHits = %d, want %d (affinity keeps every shard's cache warm)", out2.CacheHits, n)
	}
}

// TestBatchUnshardableForwardedWhole: a body the router can't split
// (instances missing) is forwarded whole so the backend's own
// validation answers.
func TestBatchUnshardableForwardedWhole(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, data := postJSON(t, c, "/v1/batch", []byte(`{"workers":2}`))
	if resp.StatusCode == http.StatusOK || resp.StatusCode >= 500 {
		t.Fatalf("unshardable batch: status %d (%s), want the backend's 4xx", resp.StatusCode, data)
	}
	if !json.Valid(data) {
		t.Fatalf("unshardable batch response is not JSON: %s", data)
	}
}

// getJSON fetches url and decodes the body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestSolversAndStatsAggregation: /v1/solvers relays a backend's
// registry; /stats sums backend counters so the top level reads like
// one big energyschedd.
func TestSolversAndStatsAggregation(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Spread some traffic.
	const n = 8
	for i := 0; i < n; i++ {
		resp, body, _ := postSolve(t, c, solveBody(i+20))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}

	var solvers struct {
		Solvers []json.RawMessage `json:"solvers"`
	}
	getJSON(t, c.URL()+"/v1/solvers", &solvers)
	if len(solvers.Solvers) == 0 {
		t.Fatal("/v1/solvers through the router listed no solvers")
	}

	// Aggregate /stats must equal the sum of per-backend scrapes.
	var agg struct {
		Solved   int64  `json:"solved"`
		Requests int64  `json:"requests"`
		Policy   string `json:"policy"`
		Cache    struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Backends []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Proxied int64  `json:"proxied"`
		} `json:"backends"`
	}
	getJSON(t, c.URL()+"/stats", &agg)
	if agg.Policy != router.PolicyAffinity {
		t.Fatalf("stats policy = %q, want %q", agg.Policy, router.PolicyAffinity)
	}
	if len(agg.Backends) != 3 {
		t.Fatalf("stats lists %d backends, want 3", len(agg.Backends))
	}
	var direct struct {
		Solved int64 `json:"solved"`
	}
	var sumSolved, sumProxied int64
	for i := range c.Backends {
		getJSON(t, c.BackendURL(i)+"/stats", &direct)
		sumSolved += direct.Solved
	}
	for _, b := range agg.Backends {
		if !b.Healthy {
			t.Fatalf("backend %s unexpectedly unhealthy", b.URL)
		}
		sumProxied += b.Proxied
	}
	if agg.Solved != sumSolved {
		t.Fatalf("aggregate solved = %d, per-backend sum = %d", agg.Solved, sumSolved)
	}
	if agg.Solved < n {
		t.Fatalf("aggregate solved = %d after %d solves", agg.Solved, n)
	}
	if sumProxied < n {
		t.Fatalf("per-backend proxied sums to %d after %d solves", sumProxied, n)
	}
}

// TestSweepProxied: a sweep request (no instance to key on — keyed by
// body bytes) round-trips through the router. A sweep's routing key is
// its exact bytes, the same bytes that key the router's response
// cache, so no routed repeat exists with the cache on: this cluster
// runs with it off to watch where the repeat lands.
func TestSweepProxied(t *testing.T) {
	c, err := router.NewTestCluster(2, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.DisableDegraded = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := []byte(`{"classes":["chain"],"n":4,"procs":2,"trials":5,"seed":7}`)
	resp, data := postJSON(t, c, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d (%s)", resp.StatusCode, data)
	}
	var out struct {
		Classes []json.RawMessage `json:"classes"`
	}
	if err := json.Unmarshal(data, &out); err != nil || len(out.Classes) != 1 {
		t.Fatalf("sweep response unusable: %s", data)
	}

	// Same bytes, same backend: the body-keyed fallback is sticky too.
	resp2, _ := postJSON(t, c, "/v1/sweep", body)
	if a, b := resp.Header.Get("X-Backend"), resp2.Header.Get("X-Backend"); a != b {
		t.Fatalf("repeat sweep moved backends: %s then %s", a, b)
	}
}

// TestBodyTooLarge: bodies over MaxBodyBytes get a 413 JSON envelope
// without touching any backend.
func TestBodyTooLarge(t *testing.T) {
	c, err := router.NewTestCluster(1, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.MaxBodyBytes = 256
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := []byte(`{"instance":"` + strings.Repeat("x", 1024) + `"}`)
	resp, data := postJSON(t, c, "/v1/solve", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var env map[string]string
	if err := json.Unmarshal(data, &env); err != nil || env["error"] == "" {
		t.Fatalf("413 body is not the JSON error envelope: %s", data)
	}
}

// TestRandomPolicySpreads: the random control serves correct responses
// and touches more than one backend across distinct solves.
func TestRandomPolicySpreads(t *testing.T) {
	c, err := router.NewTestCluster(3, router.WithPolicy(router.PolicyRandom))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	backends := map[string]bool{}
	for i := 0; i < 12; i++ {
		resp, body, backend := postSolve(t, c, solveBody(i+40))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d (%s)", i, resp.StatusCode, body)
		}
		backends[backend] = true
	}
	if len(backends) < 2 {
		t.Fatalf("random policy sent 12 distinct solves to %d backend(s)", len(backends))
	}
}

// TestLeastLoadedAvoidsBusyBackend: under concurrency, least-loaded
// steers around backends with requests outstanding. Sequential traffic
// legitimately all lands on one idle member (every load ties at zero),
// so the test holds requests open with a per-backend delay to make
// loads differ.
func TestLeastLoadedAvoidsBusyBackend(t *testing.T) {
	c, err := router.NewTestCluster(3, router.WithPolicy(router.PolicyLeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range c.Backends {
		c.SetBackendDelay(i, 150*time.Millisecond)
	}

	const n = 9
	type result struct {
		status  int
		backend string
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, _, backend := postSolve(t, c, solveBody(i+60))
			results <- result{resp.StatusCode, backend}
		}(i)
	}
	backends := map[string]int{}
	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("concurrent solve: status %d", r.status)
		}
		backends[r.backend]++
	}
	if len(backends) < 2 {
		t.Fatalf("least-loaded kept %d concurrent solves on one backend: %v", n, backends)
	}
}

// TestUnknownPolicyRejected: Config validation catches typos before any
// traffic flows.
func TestUnknownPolicyRejected(t *testing.T) {
	_, err := router.New(router.Config{
		Backends: []string{"http://127.0.0.1:1"},
		Policy:   "sticky",
	})
	if err == nil {
		t.Fatal("New accepted an unknown policy")
	}
	if !strings.Contains(err.Error(), "sticky") {
		t.Fatalf("error does not name the bad policy: %v", err)
	}
}

// TestRouterResponsesAlwaysJSON spot-checks the router contract on the
// error paths reachable without a backend fault: 404-ish method
// mismatches come from the mux (plain text is acceptable there — the
// contract covers proxied endpoints), but proxied endpoints always
// produce JSON.
func TestRouterResponsesAlwaysJSON(t *testing.T) {
	c, err := router.NewTestCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, path := range []string{"/v1/solve", "/v1/simulate", "/v1/sweep", "/v1/batch"} {
		resp, data := postJSON(t, c, path, []byte(`{"garbage":`))
		if !json.Valid(data) {
			t.Fatalf("POST %s with junk body: response is not JSON: %s", path, data)
		}
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s with junk body: status %d", path, resp.StatusCode)
		}
	}
}
