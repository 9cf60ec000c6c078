package server_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"energysched/internal/server"
)

// normalizeStats decodes a GET /stats body and masks the wall-clock
// values so the rest of the document can be compared exactly:
// uptimeSeconds and each latency entry's totals and quantiles become
// "<number>", and bucket counts become "<n>" once they are checked to
// sum to the entry's count. Bucket edges, counts and every counter
// stay as served.
func normalizeStats(t *testing.T, raw []byte) any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stats payload: %v\n%s", err, raw)
	}
	maskNumber(t, doc, "uptimeSeconds")
	lat, ok := doc["latency"].(map[string]any)
	if !ok {
		t.Fatalf("stats latency block is %T, want an object", doc["latency"])
	}
	for solver, v := range lat {
		entry := v.(map[string]any)
		for _, k := range []string{"totalMs", "meanMs", "p50Ms", "p99Ms"} {
			maskNumber(t, entry, k)
		}
		var sum float64
		for _, b := range entry["buckets"].([]any) {
			bucket := b.(map[string]any)
			sum += bucket["count"].(float64)
			bucket["count"] = "<n>"
		}
		if sum != entry["count"] {
			t.Errorf("latency.%s buckets sum to %v, count is %v", solver, sum, entry["count"])
		}
	}
	return doc
}

// maskNumber replaces m[key] with "<number>" after checking it is one.
func maskNumber(t *testing.T, m map[string]any, key string) {
	t.Helper()
	if _, ok := m[key].(float64); !ok {
		t.Errorf("%s = %#v, want a number", key, m[key])
	}
	m[key] = "<number>"
}

// assertStatsGolden compares a normalized /stats document against a
// golden JSON text as decoded trees, so key order is free.
func assertStatsGolden(t *testing.T, got any, golden string) {
	t.Helper()
	var want any
	if err := json.Unmarshal([]byte(golden), &want); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("/stats document drifted from the golden; got\n%s", out)
	}
}

const bucketsGolden = `[{"leMs":0.1,"count":"<n>"},{"leMs":0.3,"count":"<n>"},{"leMs":1,"count":"<n>"},{"leMs":3,"count":"<n>"},{"leMs":10,"count":"<n>"},{"leMs":30,"count":"<n>"},{"leMs":100,"count":"<n>"},{"leMs":300,"count":"<n>"},{"leMs":1000,"count":"<n>"},{"leMs":3000,"count":"<n>"},{"leMs":10000,"count":"<n>"},{"leMs":-1,"count":"<n>"}]`

// TestStatsDocumentGolden pins the whole GET /stats document of a
// fresh server and of the same server after a solve miss, a solve
// hit, a 50-trial simulate and a malformed body: every name, nesting
// level, JSON type and counter value.
func TestStatsDocumentGolden(t *testing.T) {
	// MaxInFlight is pinned so the golden does not depend on GOMAXPROCS.
	h := server.New(server.Config{MaxInFlight: 4}).Handler()
	fresh := `{
  "uptimeSeconds": "<number>",
  "requests": 1, "solved": 0, "simulated": 0, "swept": 0, "errors": 0, "timeouts": 0,
  "inFlight": 0, "maxInFlight": 4, "queued": 0, "maxQueueDepth": 16,
  "shed": 0, "coalesced": 0, "panics": 0,
  "cache": {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": 1024},
  "jobs": {"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0, "submitted": 0,
           "deduped": 0, "resumed": 0, "checkpoints": 0, "corrupt": 0, "persistErrors": 0, "panics": 0},
  "latency": {}
}`
	assertStatsGolden(t, normalizeStats(t, do(h, "GET", "/stats", "").Body.Bytes()), fresh)

	solve := `{"instance": ` + chainInstance + `}`
	if rec := do(h, "POST", "/v1/solve", solve); rec.Code != 200 {
		t.Fatalf("solve: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(h, "POST", "/v1/solve", solve); rec.Code != 200 {
		t.Fatalf("solve hit: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(h, "POST", "/v1/simulate", `{"instance": `+chainInstance+`, "trials": 50}`); rec.Code != 200 {
		t.Fatalf("simulate: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(h, "POST", "/v1/solve", `not json`); rec.Code != 400 {
		t.Fatalf("malformed solve: %d %s", rec.Code, rec.Body.String())
	}
	entry := `{"count": 1, "totalMs": "<number>", "meanMs": "<number>", "p50Ms": "<number>", "p99Ms": "<number>", "buckets": ` + bucketsGolden + `}`
	after := `{
  "uptimeSeconds": "<number>",
  "requests": 6, "solved": 1, "simulated": 1, "swept": 0, "errors": 1, "timeouts": 0,
  "inFlight": 0, "maxInFlight": 4, "queued": 0, "maxQueueDepth": 16,
  "shed": 0, "coalesced": 0, "panics": 0,
  "cache": {"hits": 2, "misses": 3, "evictions": 0, "entries": 2, "capacity": 1024},
  "jobs": {"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0, "submitted": 0,
           "deduped": 0, "resumed": 0, "checkpoints": 0, "corrupt": 0, "persistErrors": 0, "panics": 0},
  "latency": {"continuous-convex": ` + entry + `, "simulate": ` + entry + `}
}`
	assertStatsGolden(t, normalizeStats(t, do(h, "GET", "/stats", "").Body.Bytes()), after)
}
