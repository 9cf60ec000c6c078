package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"energysched/internal/loadgen"
	"energysched/internal/router"
	"energysched/internal/server"
)

// clusterSmokeP99BoundMs is the committed cluster latency bound: 2× the
// single-node smoke bound (smokeP99BoundMs = 2000 in
// internal/loadgen), the price ceiling accepted for one extra proxy
// hop. The ci `clustersmoke` job enforces it under -race at real-time
// speed (CLUSTERSMOKE_FULL=1).
const clusterSmokeP99BoundMs = 4000

// normalizeResponse canonicalizes a response body for cross-server
// comparison: parsed, every "wallTimeMs" key (measured solver wall
// time) and "profile" block (measured campaign phase timing) — the
// only nondeterministic fields a response carries — removed
// recursively, and re-marshaled with sorted keys. Everything else —
// schedules, energies, campaign statistics, batch ordering — must
// survive byte for byte.
func normalizeResponse(t *testing.T, body []byte) []byte {
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

// cacheCounters is the /stats subset the hit-rate comparison needs; it
// decodes identically from a single energyschedd and from the router's
// aggregate. Router.CacheHits counts the requests the router answered
// from its own response cache; it stays 0 on a single energyschedd.
type cacheCounters struct {
	Solved    int64 `json:"solved"`
	Simulated int64 `json:"simulated"`
	Swept     int64 `json:"swept"`
	Shed      int64 `json:"shed"`
	Coalesced int64 `json:"coalesced"`
	Cache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Router struct {
		CacheHits int64 `json:"cacheHits"`
	} `json:"router"`
}

func scrapeCounters(t *testing.T, baseURL string) cacheCounters {
	t.Helper()
	var s cacheCounters
	getJSON(t, baseURL+"/stats", &s)
	return s
}

// hitRate is the share of cache lookups that hit between two scrapes.
// A router cache hit is a lookup that hit one hop earlier: it stands
// for the backend hit the request would otherwise have been, so it
// counts on both sides of the ratio.
func hitRate(before, after cacheCounters) (float64, int64) {
	hits := after.Cache.Hits - before.Cache.Hits + after.Router.CacheHits - before.Router.CacheHits
	misses := after.Cache.Misses - before.Cache.Misses
	if hits+misses == 0 {
		return 0, 0
	}
	return float64(hits) / float64(hits+misses), hits
}

// TestClusterSmoke is the acceptance harness for the scale-out: the
// committed reference trace (loadgen.ReferenceSpec, the same spec the
// single-node loadsmoke replays) is driven through a 3-backend
// affinity cluster two ways.
//
// Part A replays the trace sequentially against both a single
// energyschedd and the cluster, asserting every response is equivalent
// byte for byte (modulo the measured wallTimeMs diagnostic), cache
// dispositions match request by request, batch items come back in
// input order, and the cluster's aggregate cache hit rate — backend
// hits plus the router's own response-cache hits — is no worse than
// the single node's: affinity makes a 3-way split cost nothing in
// cache locality. The router answers exact repeats itself, so the
// rate's locality content comes from what it cannot answer: a
// simulate after its instance's solve, batch items, repeats with
// different bytes. Under the random policy this check fails (0.801
// against the single node's 0.881 on the reference trace).
//
// Part B replays the trace open-loop at speed (real time under
// CLUSTERSMOKE_FULL=1, 4× otherwise), asserting zero 5xx/transport
// errors, zero 4xx, per-kind p99 within 2× the committed single-node
// bound, a drained cluster afterwards, and router /stats aggregate
// deltas equal to the sum of per-backend deltas scraped directly.
func TestClusterSmoke(t *testing.T) {
	tr, err := loadgen.Generate(loadgen.ReferenceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("reference trace is empty")
	}

	t.Run("EquivalenceWithSingleNode", func(t *testing.T) {
		single := httptest.NewServer(server.New(server.Config{}).Handler())
		defer single.Close()
		c, err := router.NewTestCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		single0 := scrapeCounters(t, single.URL)
		cluster0 := scrapeCounters(t, c.URL())

		post := func(base string, ev *loadgen.Event) (int, []byte, string) {
			resp, err := http.Post(base+"/v1/"+ev.Kind, "application/json", bytes.NewReader(ev.Body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, data, resp.Header.Get("X-Cache")
		}

		for i := range tr.Events {
			ev := &tr.Events[i]
			sStatus, sBody, sCache := post(single.URL, ev)
			cStatus, cBody, cCache := post(c.URL(), ev)
			if sStatus != http.StatusOK || cStatus != http.StatusOK {
				t.Fatalf("event %d (%s): single=%d cluster=%d, want 200/200 (%.200s)",
					i, ev.Kind, sStatus, cStatus, cBody)
			}
			if sCache != cCache {
				t.Fatalf("event %d (%s): cache disposition single=%q cluster=%q — affinity must preserve per-request cache behavior",
					i, ev.Kind, sCache, cCache)
			}
			sNorm, cNorm := normalizeResponse(t, sBody), normalizeResponse(t, cBody)
			if !bytes.Equal(sNorm, cNorm) {
				t.Fatalf("event %d (%s): cluster response diverges from single node\nsingle:  %.400s\ncluster: %.400s",
					i, ev.Kind, sNorm, cNorm)
			}
			if ev.Kind == loadgen.KindBatch {
				var out struct {
					Items []struct {
						Index int    `json:"index"`
						Error string `json:"error"`
					} `json:"items"`
				}
				if err := json.Unmarshal(cBody, &out); err != nil {
					t.Fatalf("event %d: batch response: %v", i, err)
				}
				for j, item := range out.Items {
					if item.Index != j {
						t.Fatalf("event %d: batch items[%d].Index = %d — gather must restore input order", i, j, item.Index)
					}
					if item.Error != "" {
						t.Fatalf("event %d: batch items[%d] errored: %s", i, j, item.Error)
					}
				}
			}
		}

		single1 := scrapeCounters(t, single.URL)
		cluster1 := scrapeCounters(t, c.URL())
		singleRate, singleHits := hitRate(single0, single1)
		clusterRate, clusterHits := hitRate(cluster0, cluster1)
		t.Logf("cache hit rate over %d events: single %.3f (%d hits), cluster %.3f (%d hits)",
			len(tr.Events), singleRate, singleHits, clusterRate, clusterHits)
		if singleHits == 0 {
			t.Fatal("reference trace produced no cache hits on the single node; repeat traffic is broken")
		}
		if clusterRate < singleRate {
			t.Errorf("cluster cache hit rate %.3f below single-node %.3f — affinity routing is not preserving locality",
				clusterRate, singleRate)
		}
	})

	t.Run("OpenLoopReplay", func(t *testing.T) {
		c, err := router.NewTestCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		speed := 4.0
		if os.Getenv("CLUSTERSMOKE_FULL") != "" {
			speed = 1.0
		}

		// Per-backend counters scraped directly, before and after, to
		// check the router's aggregation against ground truth.
		before := make([]cacheCounters, len(c.Backends))
		for i := range c.Backends {
			before[i] = scrapeCounters(t, c.BackendURL(i))
		}
		agg0 := scrapeCounters(t, c.URL())

		rep, err := loadgen.Replay(context.Background(), tr, loadgen.ReplayOptions{
			BaseURL:     c.URL(),
			Speed:       speed,
			ScrapeStats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("replayed %d events through 3 backends in %.2fs (offered %.1f/s, achieved %.1f/s): %d ok, %d shed, %d rejected, %d errors",
			rep.Requests, rep.WallS, rep.OfferedPerSec, rep.AchievedPerSec, rep.OK, rep.Shed, rep.Rejected, rep.Errors)

		if rep.Requests != int64(len(tr.Events)) {
			t.Errorf("issued %d of %d events", rep.Requests, len(tr.Events))
		}
		if rep.Errors != 0 {
			t.Errorf("%d requests hit 5xx or transport errors through the router, want 0", rep.Errors)
		}
		if rep.Rejected != 0 {
			t.Errorf("%d requests rejected 4xx; generated traces must be fully well-formed", rep.Rejected)
		}
		if rep.OK == 0 {
			t.Error("no request succeeded")
		}
		for kind, kr := range rep.PerKind {
			if kr.P99Ms < 0 || kr.P99Ms > clusterSmokeP99BoundMs {
				t.Errorf("%s p99 = %.1fms through the router, bound %dms (mean %.1fms, max %.1fms over %d requests)",
					kind, kr.P99Ms, clusterSmokeP99BoundMs, kr.MeanMs, kr.MaxMs, kr.Requests)
			}
		}
		if rep.Stats == nil {
			t.Fatal("no stats delta scraped")
		}
		if rep.Stats.CacheHits == 0 {
			t.Error("replay produced no cache hits; affinity repeat traffic is broken")
		}
		if rep.Stats.QueuedAfter != 0 || rep.Stats.InFlightAfter != 0 {
			t.Errorf("cluster not drained after replay: queued=%d inFlight=%d",
				rep.Stats.QueuedAfter, rep.Stats.InFlightAfter)
		}

		// The router's aggregate /stats movement must equal the sum of
		// what the backends report when scraped directly — same counters,
		// two vantage points.
		agg1 := scrapeCounters(t, c.URL())
		var sum cacheCounters
		for i := range c.Backends {
			after := scrapeCounters(t, c.BackendURL(i))
			sum.Solved += after.Solved - before[i].Solved
			sum.Simulated += after.Simulated - before[i].Simulated
			sum.Swept += after.Swept - before[i].Swept
			sum.Shed += after.Shed - before[i].Shed
			sum.Coalesced += after.Coalesced - before[i].Coalesced
			sum.Cache.Hits += after.Cache.Hits - before[i].Cache.Hits
			sum.Cache.Misses += after.Cache.Misses - before[i].Cache.Misses
		}
		aggDelta := cacheCounters{
			Solved:    agg1.Solved - agg0.Solved,
			Simulated: agg1.Simulated - agg0.Simulated,
			Swept:     agg1.Swept - agg0.Swept,
			Shed:      agg1.Shed - agg0.Shed,
			Coalesced: agg1.Coalesced - agg0.Coalesced,
		}
		aggDelta.Cache.Hits = agg1.Cache.Hits - agg0.Cache.Hits
		aggDelta.Cache.Misses = agg1.Cache.Misses - agg0.Cache.Misses
		if aggDelta != sum {
			t.Errorf("router aggregate /stats deltas diverge from per-backend sums:\naggregate: %+v\nsum:       %+v",
				aggDelta, sum)
		}
		// The replay report's hits are the backends' plus the router's.
		if want := aggDelta.Cache.Hits + agg1.Router.CacheHits - agg0.Router.CacheHits; rep.Stats.CacheHits != want {
			t.Errorf("replay reports %d cache hits, want %d backend plus router hits", rep.Stats.CacheHits, want)
		}
	})
}
