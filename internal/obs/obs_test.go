package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSanitizeID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"abc123", "abc123"},
		{"trace-01.AZ_z", "trace-01.AZ_z"},
		{"has space", ""},
		{"inject\"quote", ""},
		{"newline\n", ""},
		{"non-ascii-é", ""},
		{strings.Repeat("a", MaxIDLen), strings.Repeat("a", MaxIDLen)},
		{strings.Repeat("a", MaxIDLen+1), ""},
	}
	for _, c := range cases {
		if got := SanitizeID(c.in); got != c.want {
			t.Errorf("SanitizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTraceIDDeterminism(t *testing.T) {
	a := NewTracer(TracerConfig{Seed: 42})
	b := NewTracer(TracerConfig{Seed: 42})
	for i := 0; i < 5; i++ {
		ida, idb := a.Begin("/v1/solve", "").ID(), b.Begin("/v1/solve", "").ID()
		if ida != idb {
			t.Fatalf("trace %d: IDs diverge for equal seeds: %q vs %q", i, ida, idb)
		}
		if len(ida) != 16 {
			t.Fatalf("trace ID %q not 16 hex chars", ida)
		}
		for j := 0; j < len(ida); j++ {
			c := ida[j]
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("trace ID %q has non-hex char %q", ida, c)
			}
		}
	}
	other := NewTracer(TracerConfig{Seed: 43})
	if a.Begin("/v1/solve", "").ID() == other.Begin("/v1/solve", "").ID() {
		t.Fatal("different seeds produced the same trace ID")
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTracer(TracerConfig{Seed: 1}).Begin("/v1/solve", "req-1")
	if tr.ID() != "req-1" {
		t.Fatalf("incoming ID not honored: %q", tr.ID())
	}
	id := tr.StartSpan("attempt")
	if id != 1 {
		t.Fatalf("first span id = %d, want 1", id)
	}
	tr.EndSpan(id, "ok")
	tr.Span("solve", time.Now(), "greedy")
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.nspans != 2 {
		t.Fatalf("nspans = %d, want 2", tr.nspans)
	}
	if tr.spans[0].DurNs < 0 {
		t.Fatal("ended span kept the unfinished sentinel")
	}
	if tr.spans[1].Note != "greedy" {
		t.Fatalf("span note = %q", tr.spans[1].Note)
	}
}

func TestTraceSpanCapacity(t *testing.T) {
	tr := NewTracer(TracerConfig{}).Begin("/v1/solve", "")
	for i := 0; i < MaxSpans; i++ {
		if id := tr.StartSpan("s"); id == 0 {
			t.Fatalf("span %d rejected below capacity", i)
		}
	}
	if id := tr.StartSpan("overflow"); id != 0 {
		t.Fatalf("overflow span got id %d, want 0", id)
	}
	tr.EndSpan(0, "ignored") // must not panic
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", tr.dropped)
	}
}

func TestRingSnapshot(t *testing.T) {
	tc := NewTracer(TracerConfig{Service: "test", Buffer: 4, Seed: 7})
	for i := 0; i < 6; i++ {
		tr := tc.Begin("/v1/solve", "")
		tr.StartSpan("solve")
		tc.End(tr, 200, "hit")
	}
	if tc.Total() != 6 {
		t.Fatalf("Total = %d, want 6", tc.Total())
	}
	recs := tc.Snapshot(0)
	if len(recs) != 4 {
		t.Fatalf("snapshot kept %d records, want ring size 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.After(recs[i-1].Start) {
			t.Fatal("snapshot not most-recent-first")
		}
	}
	if got := tc.Snapshot(2); len(got) != 2 {
		t.Fatalf("limited snapshot kept %d records, want 2", len(got))
	}
	// Deep copy: mutating the snapshot must not reach the ring.
	recs[0].Spans[0].Name = "mutated"
	if tc.Snapshot(1)[0].Spans[0].Name != "solve" {
		t.Fatal("snapshot aliases ring storage")
	}
}

func TestTracesHandler(t *testing.T) {
	tc := NewTracer(TracerConfig{Service: "test", Seed: 1})
	tc.End(tc.Begin("/v1/solve", "a1"), 200, "miss")
	rr := httptest.NewRecorder()
	TracesHandler(tc).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?limit=10", nil))
	var p struct {
		Service string        `json:"service"`
		Total   int64         `json:"total"`
		Traces  []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad payload: %v", err)
	}
	if p.Service != "test" || p.Total != 1 || len(p.Traces) != 1 || p.Traces[0].ID != "a1" {
		t.Fatalf("payload = %+v", p)
	}

	// Nil tracer still serves the endpoint with an empty ring.
	rr = httptest.NewRecorder()
	TracesHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if !strings.Contains(rr.Body.String(), `"traces":[]`) {
		t.Fatalf("nil tracer payload = %s", rr.Body.String())
	}
}

func TestWrapHandlerTraced(t *testing.T) {
	tc := NewTracer(TracerConfig{Service: "test", Seed: 9})
	var seen *Trace
	h := WrapHandler(tc, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = TraceFromContext(r.Context())
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusTeapot)
	}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/solve", nil))
	if seen == nil {
		t.Fatal("handler saw no trace")
	}
	if got := rr.Header().Get(RequestIDHeader); got != seen.ID() || got == "" {
		t.Fatalf("echoed ID %q, trace ID %q", got, seen.ID())
	}
	recs := tc.Snapshot(1)
	if len(recs) != 1 || recs[0].Status != http.StatusTeapot || recs[0].Note != "hit" {
		t.Fatalf("recorded trace = %+v", recs)
	}

	// Incoming ID honored; parent span recorded.
	req := httptest.NewRequest("POST", "/v1/solve", nil)
	req.Header.Set(RequestIDHeader, "upstream-7")
	req.Header.Set(SpanIDHeader, "3")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Header().Get(RequestIDHeader) != "upstream-7" {
		t.Fatalf("incoming ID not honored: %q", rr.Header().Get(RequestIDHeader))
	}
	if rec := tc.Snapshot(1)[0]; rec.ID != "upstream-7" || rec.Parent != "3" {
		t.Fatalf("recorded trace = %+v", rec)
	}

	// Invalid incoming ID replaced with a generated one.
	req = httptest.NewRequest("POST", "/v1/solve", nil)
	req.Header.Set(RequestIDHeader, "bad id with spaces")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(RequestIDHeader); got == "" || got == "bad id with spaces" {
		t.Fatalf("invalid ID passed through: %q", got)
	}

	// Non-/v1/ paths are not traced.
	before := tc.Total()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if tc.Total() != before {
		t.Fatal("non-/v1/ path was traced")
	}
}

func TestWrapHandlerDisabled(t *testing.T) {
	h := WrapHandler(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := OutgoingIDs(r.Context())
		w.Header().Set("X-Got", id)
	}))

	// No incoming ID: nothing generated, nothing echoed.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/solve", nil))
	if rr.Header().Get(RequestIDHeader) != "" {
		t.Fatal("disabled tracer generated an ID")
	}

	// Incoming ID still echoed and propagated.
	req := httptest.NewRequest("POST", "/v1/solve", nil)
	req.Header.Set(RequestIDHeader, "keep-me")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Header().Get(RequestIDHeader) != "keep-me" || rr.Header().Get("X-Got") != "keep-me" {
		t.Fatalf("disabled echo: header=%q ctx=%q", rr.Header().Get(RequestIDHeader), rr.Header().Get("X-Got"))
	}
}

// TestDisabledPathAllocs is the ISSUE's hot-path gate: with tracing
// disabled (nil tracer / nil trace), every obs entry point the request
// path touches must allocate nothing.
func TestDisabledPathAllocs(t *testing.T) {
	var nilTracer *Tracer
	var nilTrace *Trace
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		tr := nilTracer.Begin("/v1/solve", "")
		id := tr.StartSpan("solve")
		tr.EndSpan(id, "")
		tr.Span("marshal", time.Time{}, "")
		tr.SetParent("x")
		_ = tr.ID()
		nilTracer.End(tr, 200, "")
		_ = TraceFromContext(ctx)
		_ = ContextWithTrace(ctx, nil)
		_, _ = OutgoingIDs(ctx)
		_ = nilTrace.ID()
	}); n != 0 {
		t.Fatalf("disabled tracing path allocates %v per run, want 0", n)
	}
}

// TestEndAllocs proves the enabled steady state stays allocation-lean:
// ring recording itself (End) performs no per-request heap allocation.
func TestEndAllocs(t *testing.T) {
	tc := NewTracer(TracerConfig{Buffer: 8, Seed: 3})
	tr := tc.Begin("/v1/solve", "warm")
	if n := testing.AllocsPerRun(100, func() {
		tc.End(tr, 200, "hit")
	}); n != 0 {
		t.Fatalf("Tracer.End allocates %v per run, want 0", n)
	}
}

func TestOutgoingIDs(t *testing.T) {
	ctx := context.Background()
	if id, sp := OutgoingIDs(ctx); id != "" || sp != "" {
		t.Fatalf("bare context leaked IDs %q/%q", id, sp)
	}
	tr := NewTracer(TracerConfig{Seed: 1}).Begin("/v1/solve", "tid")
	ctx = ContextWithTrace(ctx, tr)
	ctx = ContextWithSpanID(ctx, "2")
	if id, sp := OutgoingIDs(ctx); id != "tid" || sp != "2" {
		t.Fatalf("OutgoingIDs = %q/%q, want tid/2", id, sp)
	}
	ctx = ContextWithRequestID(context.Background(), "bare")
	if id, sp := OutgoingIDs(ctx); id != "bare" || sp != "" {
		t.Fatalf("bare propagation = %q/%q, want bare/", id, sp)
	}
}

// goldenRegistry builds a registry with fixed values covering every
// family kind, for the exposition golden test.
func goldenRegistry() *Registry {
	r := NewRegistry()
	var reqs, inflight atomic.Int64
	reqs.Store(42)
	inflight.Store(3)
	r.Counter("test_requests_total", "Requests handled.", "requests", &reqs)
	r.Gauge("test_inflight", "Requests in flight.", "inflight", &inflight)
	r.CounterVec("test_cache_ops_total", "Cache operations.", "ops[op].count", func(emit func(Sample)) {
		emit(Sample{Labels: []Label{{"op", "hit"}}, Value: 10})
		emit(Sample{Labels: []Label{{"op", "miss"}}, Value: 4})
	})
	r.HistogramVec("test_duration_seconds", "Stage duration.", "latency", func(emit func(HistSample)) {
		emit(HistSample{
			Labels:   []Label{{"stage", "solve"}},
			BoundsNs: []float64{1e6, 1e7, 1e8},
			Counts:   []int64{5, 2, 1, 1}, // last is overflow
			Count:    9,
			SumNs:    250e6,
		})
	})
	return r
}

func TestExpositionGolden(t *testing.T) {
	const want = `# HELP test_cache_ops_total Cache operations.
# TYPE test_cache_ops_total counter
test_cache_ops_total{op="hit"} 10
test_cache_ops_total{op="miss"} 4
# HELP test_duration_seconds Stage duration.
# TYPE test_duration_seconds histogram
test_duration_seconds_bucket{stage="solve",le="0.001"} 5
test_duration_seconds_bucket{stage="solve",le="0.01"} 7
test_duration_seconds_bucket{stage="solve",le="0.1"} 8
test_duration_seconds_bucket{stage="solve",le="+Inf"} 9
test_duration_seconds_sum{stage="solve"} 0.25
test_duration_seconds_count{stage="solve"} 9
# HELP test_inflight Requests in flight.
# TYPE test_inflight gauge
test_inflight 3
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 42
`
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestMetricsHandler(t *testing.T) {
	rr := httptest.NewRecorder()
	MetricsHandler(goldenRegistry()).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := ParseExposition(rr.Body.String()); err != nil {
		t.Fatalf("served exposition does not parse: %v", err)
	}
}

// TestStats pins the /stats encoder on every statKey form — dotted
// path, rows, boolean and histogram — and checks that a family with no
// stat key is never collected for /stats.
func TestStats(t *testing.T) {
	r := goldenRegistry()
	var up atomic.Int64
	up.Store(1)
	r.Gauge("test_up", "Serving.", "state.up?", &up)
	r.GaugeFunc("go_test_profile", "Profiling only.", "", func() float64 {
		t.Error("Stats collected a family registered without a stat key")
		return 0
	})
	out, err := json.Marshal(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"inflight":3,"latency":{"solve":{"count":9,"totalMs":250,"meanMs":27.77777777777778,"p50Ms":1,"p99Ms":-1,` +
		`"buckets":[{"leMs":1,"count":5},{"leMs":10,"count":2},{"leMs":100,"count":1},{"leMs":-1,"count":1}]}},` +
		`"ops":[{"count":10,"op":"hit"},{"count":4,"op":"miss"}],"requests":42,"state":{"up":true}}`
	if string(out) != want {
		t.Fatalf("stats mismatch:\n got %s\nwant %s", out, want)
	}
}

func TestParseExposition(t *testing.T) {
	good := `# HELP a_total help text
# TYPE a_total counter
a_total 5
# TYPE b_seconds histogram
b_seconds_bucket{le="0.1"} 1
b_seconds_bucket{le="+Inf"} 2
b_seconds_sum 0.3
b_seconds_count 2
`
	exp, err := ParseExposition(good)
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if !exp.HasFamily("a_total") || !exp.HasFamily("b_seconds") {
		t.Fatalf("families = %v", exp.Families())
	}
	if exp.Samples["b_seconds_bucket"] != 2 {
		t.Fatalf("bucket samples = %d", exp.Samples["b_seconds_bucket"])
	}

	bad := []string{
		"a_total 5\n",                                    // sample without TYPE
		"# TYPE a_total widget\na_total 5\n",             // unknown type
		"# TYPE a_total counter\na_total x\n",            // bad value
		"# TYPE a_total counter\na_total{le=\"0.1\" 5\n", // unterminated labels
		"# TYPE 1bad counter\n1bad 5\n",                  // bad metric name
		"# TYPE a counter\n# TYPE a gauge\na 1\n",        // duplicate TYPE
	}
	for _, in := range bad {
		if _, err := ParseExposition(in); err == nil {
			t.Errorf("accepted malformed exposition %q", in)
		}
	}
}

func TestRegisterRuntimeValues(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	RegisterTracer(r, nil)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(b.String())
	if err != nil {
		t.Fatalf("runtime exposition does not parse: %v\n%s", err, b.String())
	}
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total", "obs_traces_total"} {
		if !exp.HasFamily(name) {
			t.Errorf("missing runtime family %q", name)
		}
	}
}
