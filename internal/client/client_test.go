package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"energysched/internal/client"
)

// TestResponseValidJSON pins the cached validity verdict the router
// reads at every layer: valid bodies, junk, an empty body and a body
// cut short mid-stream, each judged as json.Valid judges it — and
// judged once, so the verdict stands even if the body later changes.
func TestResponseValidJSON(t *testing.T) {
	cases := []struct {
		name string
		body string
		want bool
	}{
		{"object", `{"result":{"energy":1.5}}`, true},
		{"array with whitespace", " [1, 2, {\"a\": null}]\n", true},
		{"scalar", `42`, true},
		{"invalid", `<html>not json</html>`, false},
		{"empty", ``, false},
		{"truncated", `{"result":{"energy":1.`, false},
		{"trailing junk", `{} {}`, false},
	}
	for _, c := range cases {
		r := &client.Response{Status: http.StatusOK, Body: []byte(c.body)}
		if got := r.ValidJSON(); got != c.want {
			t.Errorf("%s: ValidJSON() = %v, want %v", c.name, got, c.want)
		}
		if c.want {
			r.Body = []byte(`{`)
		} else {
			r.Body = []byte(`{}`)
		}
		if got := r.ValidJSON(); got != c.want {
			t.Errorf("%s: second ValidJSON() = %v, want the cached %v", c.name, got, c.want)
		}
	}
}

// TestClassify pins the one outcome classification every consumer
// (router failover, energyload report buckets) shares.
func TestClassify(t *testing.T) {
	cases := []struct {
		status int
		want   client.Class
		name   string
	}{
		{200, client.OK, "ok"},
		{204, client.OK, "ok"},
		{429, client.Shed, "shed"},
		{400, client.Rejected, "rejected"},
		{404, client.Rejected, "rejected"},
		{413, client.Rejected, "rejected"},
		{422, client.Rejected, "rejected"},
		{500, client.ServerError, "error"},
		{502, client.ServerError, "error"},
		{504, client.ServerError, "error"},
	}
	for _, c := range cases {
		if got := client.Classify(c.status); got != c.want {
			t.Errorf("Classify(%d) = %v, want %v", c.status, got, c.want)
		}
		if got := client.Classify(c.status).String(); got != c.name {
			t.Errorf("Classify(%d).String() = %q, want %q", c.status, got, c.name)
		}
	}
}

// TestRetryAfterHonored proves the 429 path: a server shedding with
// Retry-After is retried after (at least) the jittered floor of the
// hinted wait — sleeps draw uniformly from [wait/2, wait) — and the
// hint is surfaced on the final response when retries run out.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	var gaps []time.Duration
	var last time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, now.Sub(last))
		}
		last = now
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	cl, err := client.New(client.Config{
		BaseURL:      srv.URL,
		MaxRetries:   2,
		MaxRetryWait: 50 * time.Millisecond, // cap the 1s hint so the test is fast
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Post(context.Background(), "/v1/solve", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.Attempts != 3 {
		t.Fatalf("status %d after %d attempts, want 200 after 3", resp.Status, resp.Attempts)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	for i, g := range gaps {
		if g < 20*time.Millisecond {
			t.Errorf("retry %d fired after %v, want ≥ the 25ms jitter floor of the capped 50ms wait", i+1, g)
		}
	}
}

// TestShedSurfacedWithoutRetries proves the replay mode: MaxRetries=0
// returns the 429 itself, with the parsed hint, after exactly one wire
// request.
func TestShedSurfacedWithoutRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer srv.Close()

	cl, err := client.New(client.Config{BaseURL: srv.URL, MaxRetryWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Post(context.Background(), "/v1/solve", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class() != client.Shed || resp.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("class %v after %d attempts (%d calls), want shed after 1",
			resp.Class(), resp.Attempts, calls.Load())
	}
	if resp.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", resp.RetryAfter)
	}
	if err := resp.Err(); err == nil || err.Error() != "client: status 429: overloaded" {
		t.Fatalf("Err() = %v, want the decoded envelope", err)
	}
}

// TestTransportErrorRetriesThenFails proves transport failures are
// retried and then reported as errors (never fake Responses): the
// target is a closed listener.
func TestTransportErrorRetriesThenFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listens there now

	cl, err := client.New(client.Config{
		BaseURL:    url,
		MaxRetries: 2,
		RetryWait:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cl.Post(context.Background(), "/v1/solve", []byte(`{}`)); err == nil {
		t.Fatal("expected a transport error from a closed listener")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retries took implausibly long")
	}
}

// TestXCacheAndGetJSON covers the response metadata the harness and
// router rely on: X-Cache disposition and typed /stats decoding.
func TestXCacheAndGetJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			w.Write([]byte(`{"solved": 41}`))
			return
		}
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	cl, err := client.New(client.Config{BaseURL: srv.URL + "/"}) // trailing slash trimmed
	if err != nil {
		t.Fatal(err)
	}
	if cl.BaseURL() != srv.URL {
		t.Fatalf("BaseURL = %q, want %q", cl.BaseURL(), srv.URL)
	}
	resp, err := cl.PostKind(context.Background(), "solve", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.XCache != "hit" {
		t.Fatalf("XCache = %q, want hit", resp.XCache)
	}
	var stats struct {
		Solved int64 `json:"solved"`
	}
	if err := cl.GetJSON(context.Background(), "/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Solved != 41 {
		t.Fatalf("solved = %d, want 41", stats.Solved)
	}
	if !cl.Healthy(context.Background()) {
		t.Fatal("Healthy() = false against a live server")
	}
}

// TestContextCancelStopsRetryLoop: a cancelled context must abort the
// retry sleep promptly instead of serving out the full Retry-After.
func TestContextCancelStopsRetryLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	cl, err := client.New(client.Config{BaseURL: srv.URL, MaxRetries: 5, MaxRetryWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := cl.Post(ctx, "/v1/solve", []byte(`{}`))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled retry loop still ran %v", elapsed)
	}
	// Either outcome is acceptable — the shed response or a context
	// error — as long as it came back fast.
	if err == nil && resp.Class() != client.Shed {
		t.Fatalf("unexpected outcome: %+v", resp)
	}
}
