package router_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"energysched/internal/router"
)

// FuzzRouterProxy fuzzes the router's half of the proxy contract: the
// backend is an adversary returning arbitrary statuses and bodies —
// including bodies cut short mid-stream by lying about Content-Length,
// the signature of a process dying while writing. Whatever comes back,
// the router must answer every request without panicking, with a
// syntactically valid JSON body (or the empty body of a relayed 204),
// and with a real HTTP status; junk is converted to a 502 envelope,
// never relayed. Each input drives a solve, a job poll and a job
// cancel under the same script, since all three run the same failover
// chain. Every request is sent twice; the second — for a solve whose
// first answer was a good 200, a hit in the router's response cache —
// must get the first's status and body bytes.
func FuzzRouterProxy(f *testing.F) {
	// The backend handler runs on its own goroutine, so the scripted
	// response lives behind a mutex. Fuzz workers are separate
	// processes, each calling the target sequentially, so one script
	// holds for both requests of an input.
	var (
		mu       sync.Mutex
		status   int
		payload  []byte
		truncate bool
	)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s, p, tr := status, payload, truncate
		mu.Unlock()
		if tr {
			// Promise more bytes than are written: the server cuts the
			// connection and the router's client sees an unexpected EOF.
			w.Header().Set("Content-Length", strconv.Itoa(len(p)+16))
		}
		w.WriteHeader(s)
		w.Write(p)
	}))
	defer backend.Close()

	rt, err := router.New(router.Config{Backends: []string{backend.URL}, Retries: 1})
	if err != nil {
		f.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	f.Add(200, []byte(`{"result":{}}`), []byte(`{"instance":{}}`), false)
	f.Add(200, []byte(`{"result":`), []byte(`{"instance":{}}`), false)
	f.Add(200, []byte("<html>not json</html>"), []byte(`junk`), false)
	f.Add(200, []byte(`{"result":{}}`), []byte(`{"instance":{}}`), true)
	f.Add(204, []byte{}, []byte(`{}`), false)
	f.Add(502, []byte(`oops`), []byte(`{}`), false)
	f.Add(429, []byte(`{"error":"shed"}`), []byte(`{}`), false)
	f.Add(301, []byte(`{}`), []byte(`{}`), false)

	f.Fuzz(func(t *testing.T, st int, body []byte, reqBody []byte, tr bool) {
		// WriteHeader rejects statuses outside [100,999]; 1xx are
		// interim responses the test transport can't script directly.
		if st < 200 || st > 599 {
			st = 200 + ((st%400)+400)%400
		}
		mu.Lock()
		status, payload, truncate = st, body, tr
		mu.Unlock()

		for _, rq := range []struct {
			method, path string
			body         []byte
		}{
			{http.MethodPost, "/v1/solve", reqBody},
			{http.MethodGet, "/v1/jobs/" + fuzzJobID, nil},
			{http.MethodDelete, "/v1/jobs/" + fuzzJobID, nil},
		} {
			code, data := callRouter(t, rq.method, front.URL+rq.path, rq.body)
			if code < 200 || code > 599 {
				t.Fatalf("%s %s: router status %d out of range (backend scripted %d)", rq.method, rq.path, code, st)
			}
			if code == http.StatusNoContent {
				if len(data) != 0 {
					t.Fatalf("%s %s: relayed 204 carries %d body bytes: %q", rq.method, rq.path, len(data), data)
				}
			} else if !json.Valid(data) {
				t.Fatalf("%s %s: router relayed non-JSON (backend scripted status %d, %d bytes, truncate=%v): %q",
					rq.method, rq.path, st, len(body), tr, data)
			}
			code2, data2 := callRouter(t, rq.method, front.URL+rq.path, rq.body)
			if code2 != code || !bytes.Equal(data2, data) {
				t.Fatalf("%s %s: repeat answered %d %q, first %d %q (backend scripted status %d, truncate=%v)",
					rq.method, rq.path, code2, data2, code, data, st, tr)
			}
		}
	})
}

// fuzzJobID is the canonical-shaped job ID the fuzzed polls and
// cancels name; the scripted backend answers for it whatever it is.
const fuzzJobID = "deadbeef-0123456789abcdef"

// callRouter sends one method request with body (nil for none) to url
// and returns the status and the whole response body.
func callRouter(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("router itself failed to answer: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading router response: %v", err)
	}
	return resp.StatusCode, data
}
