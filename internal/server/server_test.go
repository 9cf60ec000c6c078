package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"energysched/internal/client"
	"energysched/internal/core"
	"energysched/internal/server"
)

// slowSolverName backs the timeout tests: it supports only instances
// whose first task carries its name (so it can never win auto-dispatch
// for other tests or fuzz inputs) and blocks until the context ends.
const slowSolverName = "server-test-slow"

type slowSolver struct{}

func (slowSolver) Name() string { return slowSolverName }

func (slowSolver) Supports(in *core.Instance) bool {
	return in.Graph.N() > 0 && in.Graph.Task(0).Name == slowSolverName
}

func (slowSolver) Solve(ctx context.Context, in *core.Instance, cfg *core.Config) (*core.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func init() { core.Register(slowSolverName, slowSolver{}) }

const chainInstance = `{
  "tasks": [{"name": "t1", "weight": 1}, {"name": "t2", "weight": 2}],
  "edges": [[0, 1]],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.05, "fmax": 10},
  "deadline": 2
}`

func slowInstance() string {
	return fmt.Sprintf(`{
  "tasks": [{"name": %q, "weight": 1}],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.1, "fmax": 1},
  "deadline": 100
}`, slowSolverName)
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	return v
}

type resultJSON struct {
	Solver   string  `json:"solver"`
	Energy   float64 `json:"energy"`
	Makespan float64 `json:"makespan"`
}

// TestEndpointStatuses is the table-driven sweep over every endpoint's
// error and happy paths.
func TestEndpointStatuses(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"solve happy path", "POST", "/v1/solve", `{"instance":` + chainInstance + `}`, 200},
		{"solve pinned solver", "POST", "/v1/solve", `{"instance":` + chainInstance + `,"solver":"continuous-convex"}`, 200},
		{"solve with options", "POST", "/v1/solve", `{"instance":` + chainInstance + `,"roundUpK":5,"exactSizeLimit":32,"lowerBound":true}`, 200},
		{"solve malformed body", "POST", "/v1/solve", `{"instance": nope`, 400},
		{"solve missing instance", "POST", "/v1/solve", `{}`, 400},
		{"solve zero tasks", "POST", "/v1/solve", `{"instance":{"tasks":[],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}}`, 400},
		{"solve unknown solver", "POST", "/v1/solve", `{"instance":` + chainInstance + `,"solver":"no-such-solver"}`, 400},
		{"solve unknown strategy", "POST", "/v1/solve", `{"instance":` + chainInstance + `,"strategy":"frobnicate"}`, 400},
		{"solve invalid option value", "POST", "/v1/solve", `{"instance":` + chainInstance + `,"roundUpK":0}`, 400},
		{"solve mismatched solver", "POST", "/v1/solve", `{"instance":` + chainInstance + `,"solver":"vdd-lp"}`, 400},
		{"solve infeasible", "POST", "/v1/solve", `{"instance":{"tasks":[{"name":"a","weight":100}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":0.5}}`, 422},
		{"solve wrong method", "GET", "/v1/solve", "", 405},
		{"batch happy path", "POST", "/v1/batch", `{"instances":[` + chainInstance + `]}`, 200},
		{"batch empty list", "POST", "/v1/batch", `{"instances":[]}`, 400},
		{"batch malformed body", "POST", "/v1/batch", `]`, 400},
		{"batch unknown solver", "POST", "/v1/batch", `{"instances":[` + chainInstance + `],"solver":"no-such-solver"}`, 400},
		{"solvers", "GET", "/v1/solvers", "", 200},
		{"solvers wrong method", "POST", "/v1/solvers", "", 405},
		{"healthz", "GET", "/healthz", "", 200},
		{"stats", "GET", "/stats", "", 200},
		{"unknown path", "GET", "/nope", "", 404},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(h, c.method, c.path, c.body)
			if rec.Code != c.want {
				t.Fatalf("%s %s = %d, want %d\nbody: %s", c.method, c.path, rec.Code, c.want, rec.Body.Bytes())
			}
		})
	}
}

func TestSolveReturnsMarshalResult(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	rec := do(h, "POST", "/v1/solve", `{"instance":`+chainInstance+`}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	res := decode[resultJSON](t, rec)
	if res.Solver != "continuous-convex" {
		t.Errorf("solver = %q, want continuous-convex", res.Solver)
	}
	if res.Energy <= 0 || res.Makespan <= 0 || res.Makespan > 2+1e-9 {
		t.Errorf("implausible result: energy %v makespan %v", res.Energy, res.Makespan)
	}
}

// TestCacheHitVsMiss pins the tentpole behavior: first solve misses
// and runs a solver, the identical repeat is served from the LRU with
// the identical body, and /stats records the hit.
func TestCacheHitVsMiss(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	body := `{"instance":` + chainInstance + `}`

	first := do(h, "POST", "/v1/solve", body)
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := do(h, "POST", "/v1/solve", body)
	if second.Code != 200 || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cached response differs from the solved one")
	}

	// Different options → different fingerprint → miss.
	third := do(h, "POST", "/v1/solve", `{"instance":`+chainInstance+`,"lowerBound":true}`)
	if third.Code != 200 || third.Header().Get("X-Cache") != "miss" {
		t.Fatalf("option change: status %d, X-Cache %q", third.Code, third.Header().Get("X-Cache"))
	}
	// Volatile knobs (timeoutMs) share the fingerprint → hit.
	fourth := do(h, "POST", "/v1/solve", `{"instance":`+chainInstance+`,"timeoutMs":60000}`)
	if fourth.Code != 200 || fourth.Header().Get("X-Cache") != "hit" {
		t.Fatalf("volatile option: status %d, X-Cache %q", fourth.Code, fourth.Header().Get("X-Cache"))
	}

	st := decode[client.Stats](t, do(h, "GET", "/stats", ""))
	if st.Cache.Hits < 2 || st.Cache.Misses < 2 || st.Solved != 2 {
		t.Errorf("stats = %+v, want ≥2 hits, ≥2 misses, exactly 2 solves", st)
	}
}

func TestBatchOrderingCacheAndPartialErrors(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	// Three well-formed instances (one duplicated) plus one malformed.
	other := strings.Replace(chainInstance, `"deadline": 2`, `"deadline": 3`, 1)
	body := `{"instances":[` + chainInstance + `,` + other + `,{"tasks":[]},` + chainInstance + `],"workers":8}`

	type batchResp struct {
		Items []struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
			Cached bool            `json:"cached"`
		} `json:"items"`
		CacheHits int `json:"cacheHits"`
	}
	rec := do(h, "POST", "/v1/batch", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	resp := decode[batchResp](t, rec)
	if len(resp.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(resp.Items))
	}
	for i, item := range resp.Items {
		if item.Index != i {
			t.Errorf("item %d carries index %d; batch must preserve input order", i, item.Index)
		}
	}
	if resp.Items[2].Error == "" || resp.Items[2].Result != nil {
		t.Errorf("malformed instance item = %+v, want an error", resp.Items[2])
	}
	for _, i := range []int{0, 1, 3} {
		if resp.Items[i].Error != "" || resp.Items[i].Result == nil {
			t.Errorf("item %d = %+v, want a result", i, resp.Items[i])
		}
	}
	// Item 3 duplicates item 0: within one request the batch dedups
	// identical keys, so both items share one solve's bytes.
	if string(resp.Items[0].Result) != string(resp.Items[3].Result) {
		t.Error("duplicate instances in one batch returned different results")
	}
	// The repeat request must be all hits.
	rec2 := do(h, "POST", "/v1/batch", body)
	resp2 := decode[batchResp](t, rec2)
	if resp2.CacheHits != 3 {
		t.Errorf("repeat batch cacheHits = %d, want 3", resp2.CacheHits)
	}
	for _, i := range []int{0, 1, 3} {
		if !resp2.Items[i].Cached {
			t.Errorf("repeat batch item %d not served from cache", i)
		}
	}
	// Compare the semantic fields across requests (wallTimeMs keeps
	// raw bytes from being comparable between separate solves).
	var solved, cached resultJSON
	if err := json.Unmarshal(resp.Items[0].Result, &solved); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resp2.Items[0].Result, &cached); err != nil {
		t.Fatal(err)
	}
	if solved.Solver != cached.Solver || solved.Energy != cached.Energy || solved.Makespan != cached.Makespan {
		t.Errorf("cached batch result diverged: %+v vs %+v", solved, cached)
	}
}

// TestSolveTimeout pins timeout → 504 via a solver that blocks until
// its context expires.
func TestSolveTimeout(t *testing.T) {
	h := server.New(server.Config{SolveTimeout: 30 * time.Millisecond}).Handler()
	body := `{"instance":` + slowInstance() + `,"solver":"` + slowSolverName + `"}`
	rec := do(h, "POST", "/v1/solve", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	// The request-side knob can only lower the cap, never raise it.
	h2 := server.New(server.Config{SolveTimeout: 10 * time.Second}).Handler()
	start := time.Now()
	rec = do(h2, "POST", "/v1/solve", `{"instance":`+slowInstance()+`,"solver":"`+slowSolverName+`","timeoutMs":30}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeoutMs ignored: request took %v", elapsed)
	}
	// Batch items hitting the deadline report per-item timeout errors.
	h3 := server.New(server.Config{SolveTimeout: 30 * time.Millisecond}).Handler()
	rec = do(h3, "POST", "/v1/batch", `{"instances":[`+slowInstance()+`],"solver":"`+slowSolverName+`"}`)
	if rec.Code != 200 {
		t.Fatalf("batch status = %d, want 200 with per-item errors", rec.Code)
	}
	var resp struct {
		Items []struct {
			Error string `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Items) != 1 {
		t.Fatalf("batch response: %v\n%s", err, rec.Body.Bytes())
	}
	if !strings.Contains(resp.Items[0].Error, "timeout") {
		t.Errorf("batch item error = %q, want a timeout", resp.Items[0].Error)
	}
}

func TestOversizedBody(t *testing.T) {
	h := server.New(server.Config{MaxBodyBytes: 256}).Handler()
	big := `{"instance":` + chainInstance + `,"pad":"` + strings.Repeat("x", 1024) + `"}`
	for _, path := range []string{"/v1/solve", "/v1/batch"} {
		rec := do(h, "POST", path, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, rec.Code)
		}
	}
}

func TestSolversEndpointListsRegistry(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	rec := do(h, "GET", "/v1/solvers", "")
	var resp struct {
		Solvers []string `json:"solvers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, s := range resp.Solvers {
		found[s] = true
	}
	for _, want := range []string{"continuous-convex", "vdd-lp", "discrete-bb", "discrete-roundup", "tricrit-best-of"} {
		if !found[want] {
			t.Errorf("solver %q missing from %v", want, resp.Solvers)
		}
	}
}

func TestHealthz(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	rec := do(h, "GET", "/healthz", "")
	var resp map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp["status"] != "ok" {
		t.Fatalf("healthz = %s (%v)", rec.Body.Bytes(), err)
	}
}

func TestStatsCountsRequestsAndErrors(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	do(h, "POST", "/v1/solve", `{"instance":`+chainInstance+`}`)
	do(h, "POST", "/v1/solve", `not json`)
	st := decode[client.Stats](t, do(h, "GET", "/stats", ""))
	if st.Requests != 3 {
		t.Errorf("requests = %d, want 3", st.Requests)
	}
	if st.Solved != 1 || st.Errors != 1 {
		t.Errorf("solved/errors = %d/%d, want 1/1", st.Solved, st.Errors)
	}
}

// TestConcurrentSolvesUnderRace drives the full handler stack from
// many goroutines so the race detector sees cache, semaphore and
// counter interleavings.
func TestConcurrentSolvesUnderRace(t *testing.T) {
	h := server.New(server.Config{MaxInFlight: 4, CacheSize: 8}).Handler()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 10; i++ {
				deadline := 1.5 + float64((g+i)%4)
				inst := strings.Replace(chainInstance, `"deadline": 2`, fmt.Sprintf(`"deadline": %g`, deadline), 1)
				rec := do(h, "POST", "/v1/solve", `{"instance":`+inst+`}`)
				if rec.Code != 200 {
					t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	st := decode[client.Stats](t, do(h, "GET", "/stats", ""))
	if st.Cache.Hits == 0 {
		t.Error("no cache hits across 80 requests over 4 distinct instances")
	}
}
