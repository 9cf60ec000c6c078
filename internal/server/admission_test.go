package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energysched/internal/core"
	"energysched/internal/server"
)

// coalesceSolverName backs the singleflight test: a registry solver
// that counts its invocations and blocks on a gate so concurrent
// identical requests demonstrably overlap. Like slowSolver it only
// supports instances whose first task carries its name, so it can
// never win auto-dispatch for other tests or fuzz inputs.
const coalesceSolverName = "server-test-coalesce"

var (
	coalesceCalls   atomic.Int64
	coalesceStarted = make(chan struct{}, 64)
	coalesceGate    = make(chan struct{})
)

type coalesceSolver struct{}

func (coalesceSolver) Name() string { return coalesceSolverName }

func (coalesceSolver) Supports(in *core.Instance) bool {
	return in.Graph.N() > 0 && in.Graph.Task(0).Name == coalesceSolverName
}

func (coalesceSolver) Solve(ctx context.Context, in *core.Instance, cfg *core.Config) (*core.Result, error) {
	coalesceCalls.Add(1)
	coalesceStarted <- struct{}{}
	select {
	case <-coalesceGate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Delegate to a real solver so the response carries a genuine
	// result the cache and followers can serve.
	convex, ok := core.Lookup("continuous-convex")
	if !ok {
		panic("continuous-convex not registered")
	}
	return convex.Solve(ctx, in, cfg)
}

func init() { core.Register(coalesceSolverName, coalesceSolver{}) }

func coalesceInstance() string {
	return fmt.Sprintf(`{
  "tasks": [{"name": %q, "weight": 1}, {"name": "t2", "weight": 2}],
  "edges": [[0, 1]],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.05, "fmax": 10},
  "deadline": 4
}`, coalesceSolverName)
}

// admissionStatsJSON is the /stats subset the admission tests read.
type admissionStatsJSON struct {
	InFlight      int64 `json:"inFlight"`
	Queued        int64 `json:"queued"`
	MaxQueueDepth int   `json:"maxQueueDepth"`
	Shed          int64 `json:"shed"`
	Coalesced     int64 `json:"coalesced"`
	Solved        int64 `json:"solved"`
}

func scrape(t *testing.T, h http.Handler) admissionStatsJSON {
	t.Helper()
	return decode[admissionStatsJSON](t, do(h, "GET", "/stats", ""))
}

// waitFor polls /stats until cond holds or the deadline passes.
func waitFor(t *testing.T, h http.Handler, what string, cond func(admissionStatsJSON) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(scrape(t, h)) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats = %+v", what, scrape(t, h))
}

// TestStatsKeysGolden pins the /stats top-level key set, including the
// admission-control gauges (inFlight, queued, maxQueueDepth) and
// counters (shed, coalesced) the load harness scrapes. A drift here is
// a wire-format change: update the key list AND internal/client's
// Stats together.
func TestStatsKeysGolden(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	m := decode[map[string]json.RawMessage](t, do(h, "GET", "/stats", ""))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{
		"cache", "coalesced", "errors", "inFlight", "jobs", "latency",
		"maxInFlight", "maxQueueDepth", "panics", "queued", "requests",
		"shed", "simulated", "solved", "swept", "timeouts", "uptimeSeconds",
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("/stats keys drifted:\n got %v\nwant %v", keys, want)
	}
}

// TestSingleflightCoalescesIdenticalSolves pins the thundering-herd
// defense: N concurrent identical /v1/solve requests cost exactly ONE
// solver invocation — the first miss leads, the rest wait for its
// bytes without holding semaphore slots, and everyone receives the
// identical body.
//
// Regression baseline (pre-singleflight behavior, for the record):
// before the flightGroup landed, each of the N concurrent misses
// passed the cache check before any solve had completed, acquired its
// own semaphore slot and ran the solver independently — N identical
// requests cost N solves and N slots, so a cache-key herd could
// saturate the whole in-flight budget with duplicate work.
func TestSingleflightCoalescesIdenticalSolves(t *testing.T) {
	coalesceCalls.Store(0)
	h := server.New(server.Config{MaxInFlight: 4}).Handler()
	body := `{"instance":` + coalesceInstance() + `,"solver":"` + coalesceSolverName + `"}`

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	caches := make([]string, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(h, "POST", "/v1/solve", body)
			codes[i] = rec.Code
			caches[i] = rec.Header().Get("X-Cache")
			bodies[i] = rec.Body.String()
		}(i)
	}
	// The leader is inside the solver once started fires; give the
	// other seven time to join its flight, then open the gate.
	<-coalesceStarted
	time.Sleep(250 * time.Millisecond)
	close(coalesceGate)
	wg.Wait()

	if got := coalesceCalls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	miss, coalescedOrHit := 0, 0
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d\nbody: %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body differs from request 0", i)
		}
		switch caches[i] {
		case "miss":
			miss++
		case "coalesced", "hit":
			coalescedOrHit++
		default:
			t.Errorf("request %d: unexpected X-Cache %q", i, caches[i])
		}
	}
	if miss != 1 || coalescedOrHit != n-1 {
		t.Errorf("X-Cache split = %d miss / %d coalesced|hit, want 1 / %d", miss, coalescedOrHit, n-1)
	}
	st := scrape(t, h)
	if st.Solved != 1 {
		t.Errorf("stats solved = %d, want 1", st.Solved)
	}
	if st.Coalesced < 1 {
		t.Errorf("stats coalesced = %d, want ≥ 1", st.Coalesced)
	}
}

// TestAdmissionControlShedsAndServesCacheHits drives the server to
// saturation and pins all three admission-control behaviors at once:
// the semaphore queue fills to MaxQueueDepth, further work-needing
// requests are shed with 429 + Retry-After (solve and batch alike),
// and cache hits ride the priority lane to 200 through it all.
func TestAdmissionControlShedsAndServesCacheHits(t *testing.T) {
	h := server.New(server.Config{
		MaxInFlight:   1,
		MaxQueueDepth: 1,
		SolveTimeout:  5 * time.Second,
	}).Handler()

	// Pre-warm the cache while the server is idle.
	warm := do(h, "POST", "/v1/solve", `{"instance":`+chainInstance+`}`)
	if warm.Code != 200 {
		t.Fatalf("warmup solve: status %d: %s", warm.Code, warm.Body.Bytes())
	}

	// Distinct slow instances (distinct deadlines ⇒ distinct cache
	// keys) so they occupy the slot and the queue instead of
	// coalescing onto one flight.
	slowBody := func(deadline int) string {
		inst := strings.Replace(slowInstance(), `"deadline": 100`, fmt.Sprintf(`"deadline": %d`, deadline), 1)
		return `{"instance":` + inst + `,"solver":"` + slowSolverName + `","timeoutMs":1500}`
	}
	var wg sync.WaitGroup
	for i, want := range map[int]int{101: http.StatusGatewayTimeout, 102: http.StatusGatewayTimeout} {
		wg.Add(1)
		go func(deadline, want int) {
			defer wg.Done()
			if rec := do(h, "POST", "/v1/solve", slowBody(deadline)); rec.Code != want {
				t.Errorf("slow request (deadline %d): status %d, want %d\nbody: %s",
					deadline, rec.Code, want, rec.Body.Bytes())
			}
		}(i, want)
	}
	waitFor(t, h, "slot held and queue full", func(st admissionStatsJSON) bool {
		return st.InFlight == 1 && st.Queued == 1
	})

	// Queue is full: a fresh solve is shed, immediately, with a hint.
	rec := do(h, "POST", "/v1/solve", slowBody(103))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: status %d, want 429\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	// Batch requests needing solver work are shed by the same gate.
	rec = do(h, "POST", "/v1/batch", `{"instances":[`+slowInstance()+`],"solver":"`+slowSolverName+`"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated batch: status %d, want 429\nbody: %s", rec.Code, rec.Body.Bytes())
	}

	// Priority lane: the pre-warmed instance still answers 200 from
	// the cache while the solve lane is saturated and shedding.
	rec = do(h, "POST", "/v1/solve", `{"instance":`+chainInstance+`}`)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("cache hit under saturation: status %d, X-Cache %q, want 200 hit", rec.Code, rec.Header().Get("X-Cache"))
	}

	st := scrape(t, h)
	if st.Shed < 2 {
		t.Errorf("stats shed = %d, want ≥ 2", st.Shed)
	}
	if st.MaxQueueDepth != 1 {
		t.Errorf("stats maxQueueDepth = %d, want 1", st.MaxQueueDepth)
	}
	wg.Wait()
	waitFor(t, h, "drain", func(st admissionStatsJSON) bool {
		return st.InFlight == 0 && st.Queued == 0
	})
}
