package router

import (
	"net/http"
	"time"

	"energysched/internal/obs"
)

// The router's response cache: the router remembers the last good 200
// body for each exact (kind, request bytes) pair it relayed for
// /v1/solve, /v1/simulate and /v1/sweep, and answers a later identical
// request from it before routing, without a backend hop. The solvers
// are deterministic and every backend already answers such a repeat
// with the exact bytes of its first answer, so the router's copy is
// what the backend would have sent. The same lookup is what keeps
// repeats served while every backend is failing. Keys are the full
// request bytes (not the routing key) so two bodies that share an
// instance but differ elsewhere — a different solver or timeoutMs, say
// — are never served each other's answer. /v1/batch bodies carry
// cache-state flags and job state lives on the backends, so neither is
// ever cached here.

// responseKey builds the cache key for one request, "" when the cache
// is off.
func (rt *Router) responseKey(kind string, body []byte) string {
	if rt.responses == nil {
		return ""
	}
	return kind + "\x00" + string(body)
}

// cachePut remembers a relayed 200 body. The body slice is the client's
// fully-read response buffer, owned by this request — safe to retain
// without copying.
func (rt *Router) cachePut(key string, respBody []byte) {
	if rt.responses == nil {
		return
	}
	rt.responses.Put(key, respBody)
}

// serveCached answers w from the response cache if it holds a response
// for key, reporting whether it did. A hit records a cache.lookup span
// on the request's trace.
func (rt *Router) serveCached(w http.ResponseWriter, r *http.Request, key string) bool {
	if rt.responses == nil {
		return false
	}
	tr := obs.TraceFromContext(r.Context())
	var begin time.Time
	if tr != nil {
		begin = time.Now()
	}
	resp, ok := rt.responses.Get(key)
	if !ok {
		return false
	}
	tr.Span("cache.lookup", begin, "hit")
	rt.cacheHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Header().Set("X-Backend", "router-cache")
	w.WriteHeader(http.StatusOK)
	w.Write(resp)
	return true
}
