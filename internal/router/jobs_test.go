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

// jobBody builds a small campaign-job submission over testInstance(i):
// few trials, small chunks, so the whole job finishes in milliseconds.
func jobBody(i int) []byte {
	return []byte(`{"instance":` + testInstance(i) + `,"trials":256,"simSeed":5,"chunkSize":64}`)
}

// postJSON posts body to url and returns the response with its body
// read and the serving backend's URL (X-Backend).
func postJobJSON(t *testing.T, url string, body []byte) (*http.Response, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := readAll(t, resp)
	return resp, []byte(out), resp.Header.Get("X-Backend")
}

// pollJobDone polls GET base/v1/jobs/{id} until it answers something
// other than 202, returning the final response, its body and the
// serving backend.
func pollJobDone(t *testing.T, base, id string) (*http.Response, []byte, string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return resp, []byte(body), resp.Header.Get("X-Backend")
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("202 poll without Retry-After: %s", body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 20s: %s", id, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobDoc is the finished job document subset the tests assert on.
type jobDoc struct {
	Result   json.RawMessage `json:"result"`
	Campaign struct {
		Trials          int `json:"trials"`
		TrialsRequested int `json:"trialsRequested"`
		Succeeded       int `json:"succeeded"`
	} `json:"campaign"`
	Delta json.RawMessage `json:"delta"`
}

// TestRouterJobLifecycle drives a campaign job end to end through the
// router: submit answers 202 with Location, Retry-After and the
// serving backend; every poll — and the job's eventual 200 document —
// routes to that same backend by the ID's hash prefix alone; a
// resubmission dedupes on that backend; and a cancel (204, empty
// body) then makes polls 404 even after the failover sweep.
func TestRouterJobLifecycle(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, body, backend := postJobJSON(t, c.URL()+"/v1/jobs", jobBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if backend == "" {
		t.Fatal("submit response carries no X-Backend")
	}
	var ack struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		t.Fatalf("submit ack %s (err %v)", body, err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+ack.ID {
		t.Errorf("Location = %q, want %q", loc, "/v1/jobs/"+ack.ID)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("submit response carries no Retry-After")
	}

	final, doc, servedBy := pollJobDone(t, c.URL(), ack.ID)
	if final.StatusCode != http.StatusOK {
		t.Fatalf("final poll: %d %s", final.StatusCode, doc)
	}
	if servedBy != backend {
		t.Errorf("job done served by %s, submitted to %s — ID affinity broke", servedBy, backend)
	}
	var d jobDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("final doc: %v\n%s", err, doc)
	}
	if d.Campaign.Trials != 256 || d.Campaign.TrialsRequested != 256 {
		t.Errorf("campaign ran %d/%d trials, want 256/256", d.Campaign.Trials, d.Campaign.TrialsRequested)
	}
	if len(d.Result) == 0 || len(d.Delta) == 0 {
		t.Errorf("final doc missing result or delta: %s", doc)
	}

	// Resubmitting the identical campaign dedupes on the same backend.
	resp2, body2, backend2 := postJobJSON(t, c.URL()+"/v1/jobs", jobBody(1))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp2.StatusCode, body2)
	}
	var ack2 struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(body2, &ack2); err != nil {
		t.Fatal(err)
	}
	if ack2.ID != ack.ID || !ack2.Deduped {
		t.Errorf("resubmit ack = %+v, want dedupe onto %s", ack2, ack.ID)
	}
	if backend2 != backend {
		t.Errorf("resubmit routed to %s, original to %s", backend2, backend)
	}

	// Cancel through the router: 204 with no body, then 404.
	req, err := http.NewRequest(http.MethodDelete, c.URL()+"/v1/jobs/"+ack.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delBody := readAll(t, del)
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent || delBody != "" {
		t.Fatalf("cancel: %d %q, want 204 with empty body", del.StatusCode, delBody)
	}
	gone, goneBody, _ := pollJobDone(t, c.URL(), ack.ID)
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("poll after cancel: %d %s, want 404", gone.StatusCode, goneBody)
	}
}

// TestRouterJobPollFailsOverOn404 plants jobs directly on individual
// backends — the shape a ring change leaves behind, where the ID's
// affinity arc no longer names the member holding the job — and polls
// each through the router: the 404 from the (possibly wrong) affinity
// target must fail over to the member that has it.
func TestRouterJobPollFailsOverOn404(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 8; i++ {
		holder := i % 2
		resp, body, _ := postJobJSON(t, c.BackendURL(holder)+"/v1/jobs", jobBody(10+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("direct submit %d: %d %s", i, resp.StatusCode, body)
		}
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
			t.Fatalf("direct submit ack %s", body)
		}
		final, doc, servedBy := pollJobDone(t, c.URL(), ack.ID)
		if final.StatusCode != http.StatusOK {
			t.Fatalf("job %d (planted on backend %d): router poll = %d %s", i, holder, final.StatusCode, doc)
		}
		if servedBy != c.BackendURL(holder) {
			t.Errorf("job %d answered by %s, lives on %s", i, servedBy, c.BackendURL(holder))
		}
	}

	// A genuinely unknown ID still 404s after the sweep.
	resp, err := http.Get(c.URL() + "/v1/jobs/deadbeef-0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestRouterJobPollFailsOverPastDeadOwner kills the ring owner of a
// job that a second member also holds: a poll meets a refused
// connection at the owner, fails over to the holder, and charges the
// owner's breaker — the same chain, and the same accounting, as a
// solve meeting a dead member.
func TestRouterJobPollFailsOverPastDeadOwner(t *testing.T) {
	c, err := router.NewTestCluster(2, router.WithRouterConfig(func(cfg *router.Config) {
		// One charged failure opens the circuit, so /stats shows it.
		cfg.BreakerThreshold = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, body, ownerURL := postJobJSON(t, c.URL()+"/v1/jobs", jobBody(30))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		t.Fatalf("submit ack %s (err %v)", body, err)
	}
	owner := backendIndex(t, c, ownerURL)
	holder := 1 - owner
	// The job ID is content-derived, so the holder files the same job
	// under the same ID.
	resp, body, _ = postJobJSON(t, c.BackendURL(holder)+"/v1/jobs", jobBody(30))
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), ack.ID) {
		t.Fatalf("direct submit to holder: %d %s, want job %s", resp.StatusCode, body, ack.ID)
	}
	if final, doc, _ := pollJobDone(t, c.BackendURL(holder), ack.ID); final.StatusCode != http.StatusOK {
		t.Fatalf("holder never finished the job: %d %s", final.StatusCode, doc)
	}

	c.BackendSrvs[owner].Close() // connections to the owner are now refused
	got, err := http.Get(c.URL() + "/v1/jobs/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	doc := readAll(t, got)
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("poll with a dead owner: %d %s, want 200 from the holder", got.StatusCode, doc)
	}
	if servedBy := got.Header.Get("X-Backend"); servedBy != c.BackendURL(holder) {
		t.Errorf("poll served by %s, want the holder %s", servedBy, c.BackendURL(holder))
	}
	var stats struct {
		Router struct {
			Retried int64 `json:"retried"`
		} `json:"router"`
		Resilience struct {
			BreakerOpened int64 `json:"breakerOpened"`
		} `json:"resilience"`
	}
	getJSON(t, c.URL()+"/stats", &stats)
	if stats.Router.Retried != 1 {
		t.Errorf("router.retried = %d, want the one failover past the dead owner", stats.Router.Retried)
	}
	if stats.Resilience.BreakerOpened != 1 {
		t.Errorf("resilience.breakerOpened = %d, want the dead owner's breaker charged open", stats.Resilience.BreakerOpened)
	}
}

// TestRouterJobPinnedUnderRandomPolicy asserts the jobs path ignores
// the configured policy: even under random routing, every poll of a
// router-submitted job lands on the backend that accepted it (the
// first-pass ring pick, no failover needed — checked via the router's
// failover counter staying flat across polls).
func TestRouterJobPinnedUnderRandomPolicy(t *testing.T) {
	c, err := router.NewTestCluster(3, router.WithPolicy(router.PolicyRandom))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, body, backend := postJobJSON(t, c.URL()+"/v1/jobs", jobBody(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	final, doc, servedBy := pollJobDone(t, c.URL(), ack.ID)
	if final.StatusCode != http.StatusOK {
		t.Fatalf("poll: %d %s", final.StatusCode, doc)
	}
	if servedBy != backend {
		t.Errorf("poll served by %s, submit accepted by %s — jobs must be ring-pinned under any policy",
			servedBy, backend)
	}
	var stats struct {
		Router struct {
			Retried int64 `json:"retried"`
		} `json:"router"`
	}
	getJSON(t, c.URL()+"/stats", &stats)
	if stats.Router.Retried != 0 {
		t.Errorf("router recorded %d failovers; ring-pinned polls should need none", stats.Router.Retried)
	}
}

// TestRouterJobSubmitValidationRelayed asserts a backend's 400 for a
// bad submission relays through the router untouched (no failover —
// a 4xx is the answer, not an infrastructure failure).
func TestRouterJobSubmitValidationRelayed(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, body, _ := postJobJSON(t, c.URL()+"/v1/jobs",
		[]byte(`{"instance":`+testInstance(3)+`,"trials":256,"confidence":0.5,"epsilon":0.01}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad confidence: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "confidence") {
		t.Errorf("error envelope %s does not name the bad knob", body)
	}
	var stats struct {
		Router struct {
			Retried int64 `json:"retried"`
		} `json:"router"`
	}
	getJSON(t, c.URL()+"/stats", &stats)
	if stats.Router.Retried != 0 {
		t.Errorf("router failed over %d times on a 400", stats.Router.Retried)
	}
}
