package server_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"energysched/internal/server"
)

// FuzzSolveHandler hardens the service ingest path: arbitrary request
// bodies — malformed JSON, out-of-range weights, zero-task instances,
// absurd options — must always produce an HTTP response (never a
// panic), always valid JSON, and 4xx for anything that is not a
// solvable instance. Every input is sent twice: the second request is
// an instance-key memo hit and must get the first's status and body
// bytes. The tiny SolveTimeout bounds the damage of a fuzzer-built
// instance that actually dispatches a solver.
func FuzzSolveHandler(f *testing.F) {
	f.Add([]byte(`{"instance":` + chainInstance + `}`))
	f.Add([]byte(`{"instance":` + chainInstance + `,"solver":"continuous-convex","roundUpK":5}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"instance":{}}`))
	f.Add([]byte(`{"instance":{"tasks":[]}}`))
	f.Add([]byte(`{"instance":{"tasks":[{"name":"a","weight":1e999}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}}`))
	f.Add([]byte(`{"instance":{"tasks":[{"name":"a","weight":-1}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}}`))
	f.Add([]byte(`{"instance":{"tasks":[{"name":"a","weight":1}],"edges":[[0,9]],"processors":1,"speedModel":{"kind":"discrete","levels":[1]},"deadline":1}}`))
	f.Add([]byte(`{"instance":` + chainInstance + `,"solver":"no-such"}`))
	f.Add([]byte(`{"instance":` + chainInstance + `,"strategy":"bogus"}`))
	f.Add([]byte(`{"instance":` + chainInstance + `,"timeoutMs":-5}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{"instance":`))

	srv := server.New(server.Config{
		SolveTimeout: 200 * time.Millisecond,
		CacheSize:    64,
		MaxBodyBytes: 1 << 16,
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))) // a panic here fails the fuzz run
		again := httptest.NewRecorder()
		h.ServeHTTP(again, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
		// A 504 depends on the wall clock, not the input.
		if rec.Code != 504 && again.Code != 504 &&
			(again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes())) {
			t.Fatalf("repeat answered %d %q, first %d %q\ninput: %q",
				again.Code, again.Body.Bytes(), rec.Code, rec.Body.Bytes(), body)
		}
		if rec.Code != 200 && (rec.Code < 400 || rec.Code > 599) {
			t.Fatalf("status %d outside {200, 4xx, 5xx}\ninput: %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response is not valid JSON: %q\ninput: %q", rec.Body.Bytes(), body)
		}
		// A zero-task instance must be rejected client-side, never
		// accepted or crashed on.
		var probe struct {
			Instance struct {
				Tasks []json.RawMessage `json:"tasks"`
			} `json:"instance"`
		}
		if err := json.Unmarshal(body, &probe); err == nil &&
			strings.Contains(string(body), `"tasks"`) && len(probe.Instance.Tasks) == 0 {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("zero-task instance got status %d, want 4xx\ninput: %q", rec.Code, body)
			}
		}
	})
}

// FuzzSimulateHandler hardens the solve-then-simulate path: arbitrary
// bodies must never panic the handler or produce non-JSON, and the
// campaign knobs (trials, seed, policy, workers) must be rejected
// client-side when out of range. The tiny MaxTrials cap bounds the
// simulator work a fuzzer-built request can demand.
func FuzzSimulateHandler(f *testing.F) {
	f.Add([]byte(`{"instance":` + triChainInstance + `,"trials":20}`))
	f.Add([]byte(`{"instance":` + triChainInstance + `,"trials":20,"policy":"max-speed","worstCase":true}`))
	f.Add([]byte(`{"instance":` + triChainInstance + `,"trials":20,"simSeed":-9,"workers":3}`))
	f.Add([]byte(`{"instance":` + chainInstance + `}`))
	f.Add([]byte(`{"instance":` + triChainInstance + `,"trials":1000000000}`))
	f.Add([]byte(`{"instance":` + triChainInstance + `,"policy":"pray"}`))
	f.Add([]byte(`{"trials":10}`))
	f.Add([]byte(`junk`))
	f.Add([]byte(``))

	srv := server.New(server.Config{
		SolveTimeout: 200 * time.Millisecond,
		CacheSize:    64,
		MaxBodyBytes: 1 << 16,
		MaxTrials:    200,
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 && (rec.Code < 400 || rec.Code > 599) {
			t.Fatalf("status %d outside {200, 4xx, 5xx}\ninput: %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response is not valid JSON: %q\ninput: %q", rec.Body.Bytes(), body)
		}
	})
}

// FuzzSweepHandler hardens the generate-solve-simulate path: arbitrary
// bodies must never panic the handler or produce non-JSON, and the
// sweep spec knobs (classes, n, procs, slack, dist, trials, policy)
// must be rejected client-side when out of range. The tiny MaxSweepN /
// MaxTrials caps bound the work a fuzzer-built spec can demand.
func FuzzSweepHandler(f *testing.F) {
	f.Add([]byte(`{"classes":["chain"],"n":8,"trials":20}`))
	f.Add([]byte(`{"n":6,"procs":2,"trials":20,"tricrit":true,"policy":"max-speed"}`))
	f.Add([]byte(`{"classes":["fork-join","layered"],"dist":"heavy-tail","slack":1.5,"seed":-3}`))
	f.Add([]byte(`{"classes":["moebius"]}`))
	f.Add([]byte(`{"n":1000000000}`))
	f.Add([]byte(`{"trials":1000000000}`))
	f.Add([]byte(`{"slack":-1,"workers":99}`))
	f.Add([]byte(`{"policy":"pray"}`))
	f.Add([]byte(`{"classes":"nope"}`))
	f.Add([]byte(`junk`))
	f.Add([]byte(``))

	srv := server.New(server.Config{
		SolveTimeout: 200 * time.Millisecond,
		CacheSize:    64,
		MaxBodyBytes: 1 << 16,
		MaxTrials:    100,
		MaxSweepN:    24,
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 && (rec.Code < 400 || rec.Code > 599) {
			t.Fatalf("status %d outside {200, 4xx, 5xx}\ninput: %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response is not valid JSON: %q\ninput: %q", rec.Body.Bytes(), body)
		}
	})
}

// FuzzBatchHandler gives the batch ingest path the same treatment; a
// whole-batch request must degrade to per-item errors, never a panic
// or a non-JSON response. The repeat of every input must get the same
// status and, item by item, the same result bytes and error text; only
// the cache-disposition fields ("cached", "cacheHits") may differ.
func FuzzBatchHandler(f *testing.F) {
	f.Add([]byte(`{"instances":[` + chainInstance + `]}`))
	f.Add([]byte(`{"instances":[{"tasks":[]},` + chainInstance + `],"workers":2}`))
	f.Add([]byte(`{"instances":[]}`))
	f.Add([]byte(`{"instances":"nope"}`))
	f.Add([]byte(`garbage`))

	srv := server.New(server.Config{
		SolveTimeout: 200 * time.Millisecond,
		CacheSize:    64,
		MaxBodyBytes: 1 << 16,
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		if rec.Code != 200 && (rec.Code < 400 || rec.Code > 599) {
			t.Fatalf("status %d outside {200, 4xx, 5xx}\ninput: %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response is not valid JSON: %q\ninput: %q", rec.Body.Bytes(), body)
		}
		again := httptest.NewRecorder()
		h.ServeHTTP(again, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		if again.Code != rec.Code {
			t.Fatalf("repeat answered %d, first %d\ninput: %q", again.Code, rec.Code, body)
		}
		if rec.Code != 200 {
			if !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("repeat answered %q, first %q\ninput: %q", again.Body.Bytes(), rec.Body.Bytes(), body)
			}
			return
		}
		type item struct {
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		var first, second struct{ Items []item }
		if json.Unmarshal(rec.Body.Bytes(), &first) != nil || json.Unmarshal(again.Body.Bytes(), &second) != nil ||
			len(first.Items) != len(second.Items) {
			t.Fatalf("batch answers do not pair up: %q vs %q\ninput: %q", rec.Body.Bytes(), again.Body.Bytes(), body)
		}
		for i := range first.Items {
			a, b := first.Items[i], second.Items[i]
			if strings.HasPrefix(a.Error, "timeout: ") || strings.HasPrefix(b.Error, "timeout: ") {
				continue // a timeout depends on the wall clock, not the input
			}
			if a.Error != b.Error || !bytes.Equal(a.Result, b.Result) {
				t.Fatalf("item %d: repeat %+v, first %+v\ninput: %q", i, b, a, body)
			}
		}
	})
}
