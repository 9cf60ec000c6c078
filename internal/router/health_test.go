package router_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"energysched/internal/client"
	"energysched/internal/router"
)

// testInstance builds a tiny distinct solvable instance; the task name
// varies so different i produce different canonical hashes (and
// therefore different affinity shards) while staying feasible.
func testInstance(i int) string {
	return fmt.Sprintf(`{
  "tasks": [{"name": "t1-%d", "weight": 1}, {"name": "t2", "weight": 2}],
  "edges": [[0, 1]],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.05, "fmax": 10},
  "deadline": 4
}`, i)
}

func solveBody(i int) []byte {
	return []byte(`{"instance":` + testInstance(i) + `}`)
}

// solveBodyWithTimeout is solveBody(i) carrying a timeoutMs option: the
// same instance, so the same routing key and the same backend cache
// entry, but different bytes, so the router's response cache (keyed on
// the exact body) cannot answer it and the request is routed. Tests
// that assert where a repeat lands send these.
func solveBodyWithTimeout(i, timeoutMs int) []byte {
	return []byte(fmt.Sprintf(`{"instance":%s,"timeoutMs":%d}`, testInstance(i), timeoutMs))
}

// postSolve posts one solve through the cluster's router and returns
// the response plus the URL of the backend that served it.
func postSolve(t *testing.T, c *router.TestCluster, body []byte) (*http.Response, []byte, string) {
	t.Helper()
	resp, err := http.Post(c.URL()+"/v1/solve", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String()), resp.Header.Get("X-Backend")
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// backendIndex maps an X-Backend URL to its cluster index.
func backendIndex(t *testing.T, c *router.TestCluster, url string) int {
	t.Helper()
	for i := range c.BackendSrvs {
		if c.BackendURL(i) == url {
			return i
		}
	}
	t.Fatalf("unknown backend URL %q", url)
	return -1
}

// TestHealthEvictionAndRerouting drives the probe state machine with a
// manually stepped clock (each ProbeOnce is one tick): a backend
// failing FailAfter consecutive probes is evicted, traffic reroutes to
// the survivors with zero caller-visible errors, and the evicted
// member's keys are the only ones that move.
func TestHealthEvictionAndRerouting(t *testing.T) {
	c, err := router.NewTestCluster(3, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.FailAfter = 3
		cfg.RecoverAfter = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Route a handful of distinct instances and remember their homes.
	const nKeys = 12
	home := make([]int, nKeys)
	for i := 0; i < nKeys; i++ {
		resp, _, backend := postSolve(t, c, solveBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
		home[i] = backendIndex(t, c, backend)
	}

	// Pick a backend that actually owns traffic, and take it down.
	target := home[0]
	c.SetBackendDown(target, true)

	// Two failed probes: not yet evicted (FailAfter=3).
	c.Router.ProbeOnce(ctx)
	c.Router.ProbeOnce(ctx)
	if !c.Router.Healthy(target) {
		t.Fatal("backend evicted after 2 probes, want eviction at 3")
	}
	// Third failed probe: evicted.
	c.Router.ProbeOnce(ctx)
	if c.Router.Healthy(target) {
		t.Fatal("backend still healthy after FailAfter consecutive failed probes")
	}

	// All traffic still succeeds; the evicted member's keys moved, all
	// others stayed home (cache locality survives the eviction). The
	// bodies differ from the first round's only in timeoutMs, so each
	// is routed rather than answered by the router's response cache.
	for i := 0; i < nKeys; i++ {
		resp, _, backend := postSolve(t, c, solveBodyWithTimeout(i, 60000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d after eviction: status %d", i, resp.StatusCode)
		}
		got := backendIndex(t, c, backend)
		if got == target {
			t.Fatalf("solve %d routed to the evicted backend %d", i, target)
		}
		if home[i] != target && got != home[i] {
			t.Fatalf("solve %d moved from healthy home %d to %d; only the evicted member's keys may move",
				i, home[i], got)
		}
	}

	// While the backend is down but already evicted, the router's own
	// health stays green (two members remain).
	hz, err := http.Get(c.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("router /healthz = %d with 2 healthy backends", hz.StatusCode)
	}
}

// TestHealthReadmissionRestoresMappingWithoutDroppingInflight: a
// request already in flight on a backend survives that backend's
// eviction and readmission, and readmission restores the original
// affinity mapping exactly.
func TestHealthReadmissionRestoresMappingWithoutDroppingInflight(t *testing.T) {
	c, err := router.NewTestCluster(3, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.FailAfter = 2
		cfg.RecoverAfter = 2
		// This test holds a request in flight on a deliberately slow
		// backend; hedging would answer it from a sibling and defeat
		// the hold.
		cfg.DisableHedging = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Find the home backend of key 0.
	resp, _, backend := postSolve(t, c, solveBody(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	target := backendIndex(t, c, backend)

	// Hold a fresh request in flight on the target (distinct instance
	// so the cache can't answer it), then evict the target under it.
	c.SetBackendDelay(target, 600*time.Millisecond)
	type result struct {
		status  int
		backend string
		err     error
	}
	done := make(chan result, 1)
	go func() {
		// A second request for the same home: under affinity an
		// instance with the same routing outcome as key 0 would do, but
		// the simplest guaranteed-same-home body is key 0 with a cache
		// bypass — instead re-solve key 0's instance wrapped as a new
		// weight that still lands on target. Try keys until one homes
		// on target.
		for i := 100; ; i++ {
			req, _ := http.NewRequest(http.MethodPost, c.URL()+"/v1/solve", strings.NewReader(string(solveBody(i))))
			req.Header.Set("Content-Type", "application/json")
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				done <- result{err: err}
				return
			}
			b := r.Header.Get("X-Backend")
			r.Body.Close()
			if b == c.BackendURL(target) {
				done <- result{status: r.StatusCode, backend: b}
				return
			}
			if i > 200 {
				done <- result{err: fmt.Errorf("no key homed on backend %d", target)}
				return
			}
		}
	}()

	// Give the in-flight request time to pass the tap, then flip the
	// tap down and evict via probes. The delayed request entered before
	// the flip, so it must complete.
	time.Sleep(100 * time.Millisecond)
	c.SetBackendDown(target, true)
	c.Router.ProbeOnce(ctx)
	c.Router.ProbeOnce(ctx)
	if c.Router.Healthy(target) {
		t.Fatal("target not evicted after FailAfter probes")
	}

	// Recover: one probe is not enough (RecoverAfter=2), two readmit.
	c.SetBackendDown(target, false)
	c.Router.ProbeOnce(ctx)
	if c.Router.Healthy(target) {
		t.Fatal("backend readmitted after 1 probe, want RecoverAfter=2")
	}
	c.Router.ProbeOnce(ctx)
	if !c.Router.Healthy(target) {
		t.Fatal("backend not readmitted after RecoverAfter successful probes")
	}

	// The held request completed despite eviction+readmission under it.
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("in-flight request failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request status %d, want 200", r.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// Readmission restores the original mapping: key 0 routes home
	// (sent with a timeoutMs so the router's response cache does not
	// answer it).
	c.SetBackendDelay(target, 0)
	resp2, _, backend2 := postSolve(t, c, solveBodyWithTimeout(0, 60000))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d after readmission", resp2.StatusCode)
	}
	if backendIndex(t, c, backend2) != target {
		t.Fatalf("after readmission key routes to %s, want original home %s", backend2, c.BackendURL(target))
	}
}

// TestNoHealthyBackends: with every member evicted the router answers
// 503 with a JSON envelope on both traffic and its own health probe.
func TestNoHealthyBackends(t *testing.T) {
	c, err := router.NewTestCluster(2, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.FailAfter = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range c.Backends {
		c.SetBackendDown(i, true)
	}
	c.Router.ProbeOnce(context.Background())
	if c.Router.Healthy(0) || c.Router.Healthy(1) {
		t.Fatal("members still healthy after failing probes with FailAfter=1")
	}

	resp, body, _ := postSolve(t, c, solveBody(0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve with no backends: status %d, want 503", resp.StatusCode)
	}
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil || env["error"] == "" {
		t.Fatalf("503 body is not the JSON error envelope: %q", body)
	}

	hz, err := http.Get(c.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz = %d with no healthy backends, want 503", hz.StatusCode)
	}
}

// TestTransportFailoverHidesDeadBackend: a backend that drops off the
// network entirely (closed listener — a transport error, not an HTTP
// 5xx) is failed over before any probe has noticed, so callers see
// 200s throughout.
func TestTransportFailoverHidesDeadBackend(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill one listener outright without telling the router.
	c.BackendSrvs[1].Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := client.New(client.Config{BaseURL: c.URL()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		resp, err := cl.PostKind(ctx, "solve", solveBody(i))
		if err != nil {
			t.Fatalf("solve %d: transport error through router: %v", i, err)
		}
		if resp.Status != http.StatusOK {
			t.Fatalf("solve %d: status %d (body %s)", i, resp.Status, resp.Body)
		}
	}
	// Every body was distinct, so none was answered from the router's
	// response cache: the 200s above are the failover's work.
	if s := scrapeRouter(t, c); s.Resilience.Failovers == 0 || s.Router.CacheHits != 0 {
		t.Fatalf("failovers %d, router cache hits %d; want failovers past the dead member and no cache hits",
			s.Resilience.Failovers, s.Router.CacheHits)
	}
}
