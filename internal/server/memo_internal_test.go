package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// The instance-key memo must be invisible on the wire: these tests pin
// that /v1/solve, /v1/simulate and /v1/batch answer exactly as a
// server without the memo would — after result-cache evictions, for
// malformed input mixed into valid traffic, and for byte-different
// encodings of one instance.

// memoInstance is a small tri-crit chain, distinct per i, that every
// endpoint accepts (simulate needs the reliability block).
func memoInstance(i int) string {
	return fmt.Sprintf(`{
  "tasks": [{"name": "m%d", "weight": 1}, {"name": "n", "weight": 2}, {"name": "o", "weight": 1.5}],
  "edges": [[0, 1], [1, 2]],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.1, "fmax": 1},
  "deadline": 12,
  "reliability": {"lambda0": 0.02, "d": 3, "frel": 0.8}
}`, i)
}

// memoInstanceReordered encodes memoInstance(i) with its edges in the
// other order and no whitespace: other bytes, the same instance.
func memoInstanceReordered(i int) string {
	return fmt.Sprintf(`{"tasks":[{"name":"m%d","weight":1},{"name":"n","weight":2},{"name":"o","weight":1.5}],"edges":[[1,2],[0,1]],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":12,"reliability":{"lambda0":0.02,"d":3,"frel":0.8}}`, i)
}

// malformedInstances pairs instances every endpoint rejects with the
// exact error text the server gave them before the memo existed.
var malformedInstances = []struct{ raw, msg string }{
	{`{"tasks":[]}`, `core: instance has no tasks`},
	{`{"tasks":[{"name":"a","weight":"x"}]}`, `core: json: cannot unmarshal string into Go struct field taskJSON.tasks.weight of type float64`},
	{`{"tasks":[{"name":"a","weight":1}],"edges":[[0,9]],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}`, `dag: edge (0,9) out of range [0,1)`},
	{`{"tasks":[{"name":"a","weight":1}],"processors":1,"speedModel":{"kind":"warp"},"deadline":1}`, `core: unknown speed model kind "warp"`},
}

type memoEndpoint struct {
	path string
	body func(instance string) string
}

var memoEndpoints = []memoEndpoint{
	{"/v1/solve", func(in string) string { return `{"instance":` + in + `}` }},
	{"/v1/simulate", func(in string) string { return `{"instance":` + in + `,"trials":20}` }},
	{"/v1/batch", func(in string) string { return `{"instances":[` + in + `]}` }},
}

func memoPost(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// memoBatchItem decodes the single item of a one-instance batch.
func memoBatchItem(t *testing.T, rec *httptest.ResponseRecorder) batchItemJSON {
	t.Helper()
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Items) != 1 {
		t.Fatalf("batch response %s: %v", rec.Body.Bytes(), err)
	}
	return resp.Items[0]
}

// resultCacheHit reports whether a response was served from the
// result cache: X-Cache on solve/simulate, the item's flag on batch.
func resultCacheHit(t *testing.T, path string, rec *httptest.ResponseRecorder) bool {
	t.Helper()
	if path == "/v1/batch" {
		return memoBatchItem(t, rec).Cached
	}
	return rec.Header().Get("X-Cache") == "hit"
}

// memoNormalize drops the measured timings (wallTimeMs, profile) and
// the given extra keys from a JSON body, recursively, and re-marshals
// it with sorted keys.
func memoNormalize(t testing.TB, body []byte, drop ...string) string {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Errorf("response is not JSON: %v (%.200s)", err, body)
		return ""
	}
	drop = append(drop, "wallTimeMs", "profile")
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for _, k := range drop {
				delete(x, k)
			}
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
		t.Errorf("re-marshal: %v", err)
	}
	return string(out)
}

// TestMemoHitAfterResultEvictionMatchesFreshServer: with a tiny cache,
// traffic evicts an instance's result entry while its memo entry
// survives. The next request for it is a memo hit and a result miss:
// it must decode lazily, solve, and answer exactly what a fresh server
// answers.
func TestMemoHitAfterResultEvictionMatchesFreshServer(t *testing.T) {
	for _, ep := range memoEndpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			s := New(Config{CacheSize: 1}) // one entry per shard in both caches
			h := s.Handler()
			raw := memoInstance(0)
			if rec := memoPost(h, ep.path, ep.body(raw)); rec.Code != http.StatusOK {
				t.Fatalf("first request: %d %s", rec.Code, rec.Body.Bytes())
			}
			for i := 1; ; i++ {
				if i > 500 {
					t.Fatal("no filler evicted the result entry while the memo entry survived")
				}
				if rec := memoPost(h, ep.path, ep.body(memoInstance(i))); rec.Code != http.StatusOK {
					t.Fatalf("filler %d: %d %s", i, rec.Code, rec.Body.Bytes())
				}
				if _, in, _ := s.keys.Key([]byte(raw)); in != nil {
					continue // the memo entry was evicted too (the probe re-added it)
				}
				rec := memoPost(h, ep.path, ep.body(raw))
				if rec.Code != http.StatusOK {
					t.Fatalf("memo-hit request: %d %s", rec.Code, rec.Body.Bytes())
				}
				if resultCacheHit(t, ep.path, rec) {
					continue // the result entry survived; evict harder
				}
				want := memoPost(New(Config{}).Handler(), ep.path, ep.body(raw))
				if want.Code != rec.Code {
					t.Fatalf("status %d, fresh server %d", rec.Code, want.Code)
				}
				if got, exp := memoNormalize(t, rec.Body.Bytes()), memoNormalize(t, want.Body.Bytes()); got != exp {
					t.Fatalf("memo-hit answer differs from a fresh server's:\n%s\nvs\n%s", got, exp)
				}
				return
			}
		})
	}
}

// TestMalformedInstanceAfterValidTraffic: a warm memo changes nothing
// for input that does not decode — it is rejected, every time, with
// the decoder's exact message.
func TestMalformedInstanceAfterValidTraffic(t *testing.T) {
	for _, ep := range memoEndpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			h := New(Config{}).Handler()
			for _, raw := range []string{memoInstance(0), memoInstance(0), memoInstanceReordered(0), memoInstance(1)} {
				if rec := memoPost(h, ep.path, ep.body(raw)); rec.Code != http.StatusOK {
					t.Fatalf("valid traffic: %d %s", rec.Code, rec.Body.Bytes())
				}
			}
			for _, bad := range malformedInstances {
				for call := 0; call < 2; call++ {
					rec := memoPost(h, ep.path, ep.body(bad.raw))
					if ep.path == "/v1/batch" {
						if rec.Code != http.StatusOK {
							t.Fatalf("%s: batch status %d", bad.raw, rec.Code)
						}
						if item := memoBatchItem(t, rec); item.Error != bad.msg || item.Result != nil {
							t.Fatalf("%s call %d: item %+v, want error %q", bad.raw, call, item, bad.msg)
						}
						continue
					}
					want, _ := json.Marshal(map[string]string{"error": bad.msg})
					if rec.Code != http.StatusBadRequest || strings.TrimSpace(rec.Body.String()) != string(want) {
						t.Fatalf("%s call %d: %d %s, want 400 %s", bad.raw, call, rec.Code, rec.Body.Bytes(), want)
					}
				}
			}
		})
	}
}

// TestEncodingsShareResultEntry: two encodings of one instance are two
// memo entries but one result entry, so the second is a cache hit with
// the first's bytes.
func TestEncodingsShareResultEntry(t *testing.T) {
	for _, ep := range memoEndpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			h := New(Config{}).Handler()
			first := memoPost(h, ep.path, ep.body(memoInstance(0)))
			second := memoPost(h, ep.path, ep.body(memoInstanceReordered(0)))
			if first.Code != http.StatusOK || second.Code != http.StatusOK {
				t.Fatalf("statuses %d, %d", first.Code, second.Code)
			}
			if resultCacheHit(t, ep.path, first) || !resultCacheHit(t, ep.path, second) {
				t.Fatal("want a result-cache miss, then a hit")
			}
			a, b := first.Body.Bytes(), second.Body.Bytes()
			if ep.path == "/v1/batch" {
				a, b = memoBatchItem(t, first).Result, memoBatchItem(t, second).Result
			}
			if string(a) != string(b) {
				t.Fatalf("second encoding served other bytes:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestInstanceMemoConcurrent sends valid, reordered and malformed
// instances to every endpoint from several goroutines at once through
// a server whose caches evict constantly (run it with -race
// -count=10). Every answer must match a fresh server's, modulo the
// measured timings and the cache-disposition fields, which depend on
// interleaving.
func TestInstanceMemoConcurrent(t *testing.T) {
	type call struct {
		path, body string
		status     int
		want       string
	}
	fresh := New(Config{}).Handler()
	var calls []call
	for _, ep := range memoEndpoints {
		raws := []string{memoInstance(0), memoInstanceReordered(0), memoInstance(1), memoInstance(2), malformedInstances[0].raw, malformedInstances[1].raw}
		for i := 3; i < 8; i++ {
			raws = append(raws, memoInstance(i))
		}
		for _, raw := range raws {
			body := ep.body(raw)
			rec := memoPost(fresh, ep.path, body)
			calls = append(calls, call{ep.path, body, rec.Code, memoNormalize(t, rec.Body.Bytes(), "cached", "cacheHits")})
		}
	}

	h := New(Config{CacheSize: 1}).Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2*len(calls); n++ {
				c := calls[(g*5+n)%len(calls)]
				rec := memoPost(h, c.path, c.body)
				if got := memoNormalize(t, rec.Body.Bytes(), "cached", "cacheHits"); rec.Code != c.status || got != c.want {
					t.Errorf("%s %.60s: %d %s, want %d %s", c.path, c.body, rec.Code, got, c.status, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
