package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"energysched/internal/chaos"
	"energysched/internal/client"
	"energysched/internal/loadgen"
	"energysched/internal/router"
	"energysched/internal/server"
)

// chaosSmokeP99BoundMs is the committed latency ceiling under fault
// injection: 2× the fault-free cluster bound (clusterSmokeP99BoundMs =
// 4000 in internal/router). Crashes, partitions and latency ramps are
// allowed to cost failovers and hedges, not unbounded tail latency.
const chaosSmokeP99BoundMs = 8000

// normalizeBody canonicalizes a response body for cross-run
// comparison: parsed, every "wallTimeMs" key (measured solver wall
// time) and "profile" block (measured campaign phase timing) plus the
// cache-disposition fields ("cached", "cacheHits") removed
// recursively, and re-marshaled with sorted keys. Cache disposition
// depends on request history, and chaos failovers legitimately
// reorder history across backends; the computed payload — schedules,
// energies, campaign statistics — must still match byte for byte.
func normalizeBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v (%.200s)", err, body)
	}
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			delete(x, "wallTimeMs")
			delete(x, "profile")
			delete(x, "cached")
			delete(x, "cacheHits")
			for _, child := range x {
				strip(child)
			}
		case []any:
			for _, child := range x {
				strip(child)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// batchHasItemErrors reports whether a 200 batch response degraded any
// item to a per-item error (the batch endpoint's partial-failure mode).
func batchHasItemErrors(body []byte) bool {
	var out struct {
		Items []struct {
			Error string `json:"error"`
		} `json:"items"`
	}
	if json.Unmarshal(body, &out) != nil {
		return true
	}
	for _, item := range out.Items {
		if item.Error != "" {
			return true
		}
	}
	return false
}

// TestChaosSmoke is the acceptance harness for the chaos-hardened
// cluster: the committed reference trace (loadgen.ReferenceSpec) is
// co-replayed with the committed reference fault schedule
// (chaos.ReferenceSpec — crashes, partitions, corruption, latency
// ramps and connection kills, at most one backend faulted at any
// instant) against a router + 3 backends, and the run must look
// boring from the caller's side:
//
//   - zero 5xx and zero transport errors reach the caller — every
//     fault is absorbed by failover, breakers or hedging, and exact
//     repeats are answered by the router's response cache;
//   - per-kind p99 stays within 2× the fault-free cluster bound;
//   - the cluster drains completely once the trace ends;
//   - every response that succeeded in both this run and a fault-free
//     single-node run is byte-equivalent to it (modulo wallTimeMs) —
//     chaos may slow answers down, never change them.
//
// CHAOSSMOKE_FULL=1 replays at real-time speed (the CI chaossmoke
// job); the default 4× keeps the in-tree run short.
func TestChaosSmoke(t *testing.T) {
	tr, err := loadgen.Generate(loadgen.ReferenceSpec())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := chaos.Generate(chaos.ReferenceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || len(sched.Events) == 0 {
		t.Fatalf("empty reference inputs: %d trace events, %d fault events", len(tr.Events), len(sched.Events))
	}

	speed := 4.0
	if os.Getenv("CHAOSSMOKE_FULL") != "" {
		speed = 1.0
	}

	// Fault-free baseline: the trace replayed sequentially against one
	// energyschedd. Responses are deterministic given the request body,
	// so this is the ground truth the chaos run must match.
	baseline := make([][]byte, len(tr.Events))
	func() {
		single := httptest.NewServer(server.New(server.Config{}).Handler())
		defer single.Close()
		for i := range tr.Events {
			ev := &tr.Events[i]
			resp, err := http.Post(single.URL+"/v1/"+ev.Kind, "application/json", bytes.NewReader(ev.Body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("baseline event %d (%s): status %d (%.200s)", i, ev.Kind, resp.StatusCode, body)
			}
			baseline[i] = normalizeBody(t, body)
		}
	}()

	// The cluster under test: fast probes so evictions and readmissions
	// actually happen inside the 10-second window.
	c, err := router.NewTestCluster(3, router.WithRouterConfig(func(cfg *router.Config) {
		cfg.FailAfter = 2
		cfg.RecoverAfter = 1
		cfg.ProbeInterval = 150 * time.Millisecond
		// A ring big enough to hold every request of the replay, so the
		// fault-window traces are still there when the run ends.
		cfg.TraceBuffer = 4096
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go c.Router.Run(ctx)

	// Fault replay runs beside the load replay on the same scaled
	// timeline. The deferred cancel+wait keeps the injector from
	// touching taps after the cluster is closed on an early Fatal.
	var faultRep *chaos.Report
	var faultErr error
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		faultRep, faultErr = chaos.Replay(ctx, sched, c, chaos.ReplayOptions{Speed: speed})
	}()
	defer func() {
		cancel()
		<-faultsDone
	}()

	type outcome struct {
		status int
		body   []byte
		err    error
	}
	results := make([]outcome, len(tr.Events))
	var mu sync.Mutex
	rep, err := loadgen.Replay(ctx, tr, loadgen.ReplayOptions{
		BaseURL: c.URL(),
		Speed:   speed,
		OnResult: func(i int, ev *loadgen.Event, resp *client.Response, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			results[i] = outcome{status: resp.Status, body: resp.Body}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-faultsDone
	if faultErr != nil {
		t.Fatalf("fault replay: %v", faultErr)
	}
	if faultRep.Faults != len(sched.Events) {
		t.Fatalf("injected %d of %d scheduled faults", faultRep.Faults, len(sched.Events))
	}
	t.Logf("replayed %d events through %d faults %v in %.2fs: %d ok, %d shed, %d rejected, %d errors",
		rep.Requests, faultRep.Faults, faultRep.PerAction, rep.WallS, rep.OK, rep.Shed, rep.Rejected, rep.Errors)

	// The caller-visible contract: no 5xx, no transport errors, no
	// malformed-request rejections, sane tail latency.
	if rep.Requests != int64(len(tr.Events)) {
		t.Errorf("issued %d of %d events", rep.Requests, len(tr.Events))
	}
	if rep.Errors != 0 {
		for i, r := range results {
			if r.err != nil {
				t.Errorf("event %d (%s): transport error: %v", i, tr.Events[i].Kind, r.err)
			} else if r.status >= 500 {
				t.Errorf("event %d (%s): status %d (%.200s)", i, tr.Events[i].Kind, r.status, r.body)
			}
		}
		t.Fatalf("%d requests saw 5xx or transport errors under chaos, want 0", rep.Errors)
	}
	if rep.Rejected != 0 {
		t.Errorf("%d requests rejected 4xx; faults must never corrupt requests into rejections", rep.Rejected)
	}
	for kind, kr := range rep.PerKind {
		if kr.P99Ms < 0 || kr.P99Ms > chaosSmokeP99BoundMs {
			t.Errorf("%s p99 = %.1fms under chaos, bound %dms (mean %.1fms, max %.1fms over %d requests)",
				kind, kr.P99Ms, chaosSmokeP99BoundMs, kr.MeanMs, kr.MaxMs, kr.Requests)
		}
	}

	// Drain: hedge losers are cancelled asynchronously, so poll briefly
	// rather than demanding instantaneous zero.
	cl, err := client.New(client.Config{BaseURL: c.URL()})
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		InFlight int64 `json:"inFlight"`
		Queued   int64 `json:"queued"`
		Router   struct {
			CacheHits int64 `json:"cacheHits"`
		} `json:"router"`
		Resilience struct {
			BreakerOpened int64 `json:"breakerOpened"`
			Failovers     int64 `json:"failovers"`
			HedgesFired   int64 `json:"hedgesFired"`
			HedgesWon     int64 `json:"hedgesWon"`
		} `json:"resilience"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cl.GetJSON(ctx, "/stats", &stats); err != nil {
			t.Fatal(err)
		}
		if stats.InFlight == 0 && stats.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster not drained after chaos replay: inFlight=%d queued=%d", stats.InFlight, stats.Queued)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("resilience: %+v, router cache hits: %d", stats.Resilience, stats.Router.CacheHits)
	if stats.Resilience.Failovers == 0 {
		t.Error("chaos run recorded zero failovers; the schedule did not exercise the router")
	}
	if stats.Resilience.HedgesWon > stats.Resilience.HedgesFired {
		t.Errorf("hedgesWon %d > hedgesFired %d", stats.Resilience.HedgesWon, stats.Resilience.HedgesFired)
	}

	// The router's trace ring must show the resilience machinery at
	// work: the counters say failovers (and usually hedges) happened, so
	// spans with those names must be visible at /debug/traces — the
	// observability the counters only summarize.
	var traces struct {
		Traces []struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := cl.GetJSON(ctx, "/debug/traces?limit=0", &traces); err != nil {
		t.Fatal(err)
	}
	spanCount := map[string]int{}
	for _, rec := range traces.Traces {
		for _, sp := range rec.Spans {
			spanCount[sp.Name]++
		}
	}
	t.Logf("router span counts over %d traces: %v", len(traces.Traces), spanCount)
	if spanCount["failover"] == 0 {
		t.Errorf("resilience counters report %d failovers but no failover span is visible at /debug/traces", stats.Resilience.Failovers)
	}
	if stats.Resilience.HedgesFired > 0 && spanCount["hedge"] == 0 {
		t.Errorf("resilience counters report %d hedges fired but no hedge span is visible at /debug/traces", stats.Resilience.HedgesFired)
	}

	// Byte-equivalence: every event that returned 200 both fault-free
	// and under chaos must carry the same payload (modulo wallTimeMs).
	// Batch responses that degraded items to per-item errors are a
	// correct partial-failure answer, not a divergence — excluded.
	compared, skipped := 0, 0
	for i, r := range results {
		if r.status != http.StatusOK || baseline[i] == nil {
			skipped++
			continue
		}
		if tr.Events[i].Kind == loadgen.KindBatch && batchHasItemErrors(r.body) {
			skipped++
			continue
		}
		if got := normalizeBody(t, r.body); !bytes.Equal(got, baseline[i]) {
			t.Errorf("event %d (%s): chaos response diverges from fault-free baseline\nbaseline: %.400s\nchaos:    %.400s",
				i, tr.Events[i].Kind, baseline[i], got)
		}
		compared++
	}
	t.Logf("byte-equivalence: %d compared, %d excluded (non-200 or degraded batch)", compared, skipped)
	if compared < len(tr.Events)/2 {
		t.Errorf("only %d of %d responses were comparable; the equivalence check has no teeth", compared, len(tr.Events))
	}
}
