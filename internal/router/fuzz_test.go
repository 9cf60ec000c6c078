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
// syntactically valid JSON body, and with a real HTTP status; junk is
// converted to a 502 envelope, never relayed. Every request is sent
// twice under the same script; the second, an instance-key memo hit
// whenever the body carries a decodable instance, must get the first's
// status and body bytes.
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

		code, data := postRouter(t, front.URL, reqBody)
		if code < 200 || code > 599 {
			t.Fatalf("router status %d out of range (backend scripted %d)", code, st)
		}
		if !json.Valid(data) {
			t.Fatalf("router relayed non-JSON (backend scripted status %d, %d bytes, truncate=%v): %q",
				st, len(body), tr, data)
		}
		code2, data2 := postRouter(t, front.URL, reqBody)
		if code2 != code || !bytes.Equal(data2, data) {
			t.Fatalf("repeat answered %d %q, first %d %q (backend scripted status %d, truncate=%v)",
				code2, data2, code, data, st, tr)
		}
	})
}

// postRouter posts body to the router's /v1/solve and returns the
// status and the whole response body.
func postRouter(t *testing.T, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
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
