// Package obs is the zero-dependency observability layer shared by
// energyschedd and energyrouter: request-scoped tracing with
// deterministic seeded trace IDs, a Prometheus text-format metric
// registry that renders both GET /metrics and the JSON GET /stats
// document, and runtime (goroutine/GC/heap) gauges.
//
// The layer is built around two invariants:
//
//   - Disabled means free. Every tracing entry point is nil-safe — a
//     nil *Tracer begins a nil *Trace, and every method on a nil
//     *Trace is a no-op — so the request hot path carries no
//     conditionals beyond the nil checks it already needed, and adds
//     zero allocations when tracing is off (gated by AllocsPerRun in
//     the tests).
//
//   - One registry, two views. Each metric family is declared once,
//     with the /stats key its value renders under, and the registry
//     encodes it both as GET /metrics text (WritePrometheus) and as
//     the GET /stats JSON document (Stats). The two views agree by
//     construction.
//
// Request identity travels in two headers: RequestIDHeader carries the
// trace ID end to end (router → backend, echoed on every response),
// and SpanIDHeader carries the caller-side span that issued the
// request, so hedged legs share one trace ID while remaining
// distinguishable on the backend.
package obs

import (
	"net/http"
	"strings"
)

// Header names for request-identity propagation.
const (
	// RequestIDHeader carries the trace ID. Incoming values are honored
	// (after SanitizeID); absent ones are generated by the first traced
	// hop. Every response echoes it, error envelopes included.
	RequestIDHeader = "X-Request-Id"
	// SpanIDHeader names the caller-side span that issued a proxied
	// request, distinguishing hedge legs and failover attempts that
	// share one trace ID.
	SpanIDHeader = "X-Span-Id"
)

// MaxIDLen caps accepted incoming request IDs; longer values are
// treated as absent rather than truncated, so an ID either round-trips
// exactly or not at all.
const MaxIDLen = 64

// SanitizeID validates an incoming request ID: 1..MaxIDLen characters
// from [0-9A-Za-z._-]. Anything else returns "" (treat as absent) —
// the echo path writes the value into a response header, so arbitrary
// client bytes must not pass through.
func SanitizeID(id string) string {
	if id == "" || len(id) > MaxIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// WrapHandler wires a Tracer around an HTTP handler: /v1/* requests
// get a Trace (honoring an incoming X-Request-Id, generating one
// otherwise), the trace rides the request context for handlers to add
// spans, the trace ID is echoed on the response — before the handler
// runs, so error envelopes and router cache hits carry it too — and
// the completed trace is recorded with the response status and cache
// disposition. Non-/v1/ paths (health probes, /stats and /metrics
// scrapes, admin) pass through untraced so scrape traffic cannot flush
// the ring.
//
// With a nil Tracer the wrapper still echoes an incoming request ID
// (the one allocation-bearing step, taken only when the caller already
// sent the header); a request with no incoming ID passes through with
// zero additional allocations.
func WrapHandler(t *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		incoming := SanitizeID(r.Header.Get(RequestIDHeader))
		tr := t.Begin(r.URL.Path, incoming)
		if tr == nil {
			if incoming != "" {
				w.Header().Set(RequestIDHeader, incoming)
				next.ServeHTTP(w, r.WithContext(ContextWithRequestID(r.Context(), incoming)))
				return
			}
			next.ServeHTTP(w, r)
			return
		}
		tr.SetParent(SanitizeID(r.Header.Get(SpanIDHeader)))
		w.Header().Set(RequestIDHeader, tr.ID())
		sw := statusWriter{ResponseWriter: w}
		next.ServeHTTP(&sw, r.WithContext(ContextWithTrace(r.Context(), tr)))
		t.End(tr, sw.status(), sw.Header().Get("X-Cache"))
	})
}

// statusWriter captures the response status for the trace record.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports it, so
// wrapping never removes streaming capability.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
