// Package client is the typed HTTP client for energyschedd and
// energyrouter: one place that knows how to issue the service's JSON
// requests, bound them with timeouts, classify every outcome (2xx ok,
// 429 shed, other 4xx rejected, 5xx server error, transport failure)
// and honor Retry-After hints on admission-control sheds. Both the
// router's backend transport and cmd/energyload's replay path sit on
// this package, so the 429 and error-classification rules are written
// — and tested — exactly once.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"energysched/internal/obs"
	"energysched/internal/rng"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultTimeout      = 30 * time.Second
	DefaultRetryWait    = 100 * time.Millisecond
	DefaultMaxRetryWait = 2 * time.Second
)

// Config tunes one Client. The zero value of every field is usable:
// New substitutes the package defaults. BaseURL is required.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" or an
	// httptest.Server.URL. Required; trailing slashes are trimmed.
	BaseURL string
	// HTTPClient issues the requests. When nil, an http.Client with
	// Timeout is used.
	HTTPClient *http.Client
	// Timeout bounds each request when HTTPClient is nil
	// [DefaultTimeout].
	Timeout time.Duration
	// MaxRetries is how many times Post/Get re-issue a request after a
	// transport failure or a 429 shed before reporting the outcome.
	// Zero means no retries — the mode the open-loop load generator
	// wants, where a shed must be counted, not hidden [0].
	MaxRetries int
	// RetryWait is the pause before a retry when the server supplied
	// no Retry-After hint [DefaultRetryWait].
	RetryWait time.Duration
	// MaxRetryWait caps the honored Retry-After hint so a
	// misconfigured server cannot stall a caller for minutes
	// [DefaultMaxRetryWait].
	MaxRetryWait time.Duration
	// Seed drives the retry-sleep jitter [1]. Retries sleep a uniform
	// draw from [wait/2, wait) rather than exactly wait: a server-wide
	// shed sends every caller the same Retry-After hint, and without
	// jitter they would all come back in the same instant and shed
	// again, in lockstep, forever.
	Seed int64
}

// Client issues requests against one base URL. Create with New; it is
// safe for concurrent use.
type Client struct {
	cfg  Config
	base string
	http *http.Client

	rndMu sync.Mutex
	rnd   rng.Stream // jitter draws; only retrying paths touch it
}

// New returns a Client for cfg with zero fields defaulted.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.RetryWait <= 0 {
		cfg.RetryWait = DefaultRetryWait
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = DefaultMaxRetryWait
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: cfg.Timeout}
	}
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.BaseURL, "/"),
		http: hc,
		rnd:  rng.At(cfg.Seed, 0),
	}, nil
}

// BaseURL returns the client's trimmed base URL.
func (c *Client) BaseURL() string { return c.base }

// Class is the coarse outcome of a completed request, the buckets the
// load harness and the router both count.
type Class int

const (
	// OK is any 2xx response.
	OK Class = iota
	// Shed is a 429 admission-control rejection.
	Shed
	// Rejected is any other 4xx: the request itself was at fault.
	Rejected
	// ServerError is any 5xx.
	ServerError
)

// String names the class the way reports spell it.
func (c Class) String() string {
	switch c {
	case OK:
		return "ok"
	case Shed:
		return "shed"
	case Rejected:
		return "rejected"
	default:
		return "error"
	}
}

// Classify maps an HTTP status to its outcome class.
func Classify(status int) Class {
	switch {
	case status < 300:
		return OK
	case status == http.StatusTooManyRequests:
		return Shed
	case status < 500:
		return Rejected
	default:
		return ServerError
	}
}

// Response is one completed exchange. Body is fully read and the
// connection returned to the pool before Response is handed back.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// Body is the full response body.
	Body []byte
	// XCache is the server's cache disposition header: "hit", "miss",
	// "coalesced", or empty when the endpoint does not set one.
	XCache string
	// Location is the Location header — the poll URL on a 202 job
	// acknowledgement — or empty when the response carries none.
	Location string
	// RetryAfter is the parsed Retry-After hint on a 429 shed or a 202
	// accepted-for-later answer, zero otherwise.
	RetryAfter time.Duration
	// Attempts is how many wire requests this exchange cost (1 without
	// retries).
	Attempts int
	// RequestID is the server's echoed X-Request-Id: the trace handle a
	// caller quotes against GET /debug/traces. Empty when the endpoint
	// is untraced.
	RequestID string

	validity int8 // ValidJSON's cached verdict: 0 unknown, 1 valid, -1 not
}

// ValidJSON reports whether Body is syntactically valid JSON. The body
// is scanned on the first call only and the verdict cached, so a
// caller that checks one response at several layers pays for one
// scan. Body must not change after the first call, and the first call
// must not race another on the same Response.
func (r *Response) ValidJSON() bool {
	if r.validity == 0 {
		r.validity = -1
		if json.Valid(r.Body) {
			r.validity = 1
		}
	}
	return r.validity > 0
}

// Class classifies the response status.
func (r *Response) Class() Class { return Classify(r.Status) }

// Err converts a non-2xx response into a descriptive error, decoding
// the service's {"error": ...} envelope when present. A 2xx response
// returns nil.
func (r *Response) Err() error {
	if r.Class() == OK {
		return nil
	}
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(r.Body, &env) == nil && env.Error != "" {
		return fmt.Errorf("client: status %d: %s", r.Status, env.Error)
	}
	return fmt.Errorf("client: status %d", r.Status)
}

// retryAfter parses a 429's Retry-After header (delay-seconds form)
// into the wait the retry loop honors, capped by MaxRetryWait and
// falling back to RetryWait when absent or unparsable.
func (c *Client) retryAfter(h http.Header) time.Duration {
	wait := c.cfg.RetryWait
	if s := h.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait > c.cfg.MaxRetryWait {
		wait = c.cfg.MaxRetryWait
	}
	return wait
}

// retryDelay is the jittered sleep before retry number attempt+1: a
// uniform draw from [wait/2, wait), where wait is the larger of the
// server's (capped) Retry-After hint and the exponential base
// RetryWait·2^attempt, itself capped by MaxRetryWait. The jitter is
// what keeps a fleet of callers shed at the same instant from
// returning at the same instant; the exponential base is what backs a
// persistently failing caller off. A zero-retry client never calls
// this, so the Replay path draws nothing and stays byte-stable.
func (c *Client) retryDelay(attempt int, hint time.Duration) time.Duration {
	wait := c.cfg.RetryWait
	for i := 0; i < attempt && wait < c.cfg.MaxRetryWait; i++ {
		wait *= 2
	}
	if hint > wait {
		wait = hint
	}
	if wait > c.cfg.MaxRetryWait {
		wait = c.cfg.MaxRetryWait
	}
	if wait <= 1 {
		return wait
	}
	c.rndMu.Lock()
	d := wait/2 + time.Duration(c.rnd.Uint64()%uint64(wait/2))
	c.rndMu.Unlock()
	return d
}

// Do issues one method request to path (e.g. "/v1/solve") with the
// retry policy: transport failures and 429 sheds are re-issued up to
// MaxRetries times, sleeping a jittered backoff that honors the
// (capped) Retry-After hint between shed attempts. Any other status is
// final on first sight. A non-nil body is sent as JSON. The returned
// error is a transport failure — HTTP-level failures come back as a
// Response for the caller to classify.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, fmt.Errorf("client: building request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if id, span := obs.OutgoingIDs(ctx); id != "" {
			req.Header.Set(obs.RequestIDHeader, id)
			if span != "" {
				req.Header.Set(obs.SpanIDHeader, span)
			}
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			if attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
				return nil, fmt.Errorf("client: %s %s: %w (after %d attempts)", method, path, lastErr, attempt+1)
			}
			if err := sleep(ctx, c.retryDelay(attempt, 0)); err != nil {
				return nil, fmt.Errorf("client: %s %s: %w", method, path, lastErr)
			}
			continue
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("reading response body: %w", err)
			if attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
				return nil, fmt.Errorf("client: %s %s: %w (after %d attempts)", method, path, lastErr, attempt+1)
			}
			if err := sleep(ctx, c.retryDelay(attempt, 0)); err != nil {
				return nil, fmt.Errorf("client: %s %s: %w", method, path, lastErr)
			}
			continue
		}
		r := &Response{
			Status:    resp.StatusCode,
			Body:      out,
			XCache:    resp.Header.Get("X-Cache"),
			Location:  resp.Header.Get("Location"),
			Attempts:  attempt + 1,
			RequestID: resp.Header.Get(obs.RequestIDHeader),
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			r.RetryAfter = c.retryAfter(resp.Header)
			if attempt < c.cfg.MaxRetries {
				if err := sleep(ctx, c.retryDelay(attempt, r.RetryAfter)); err == nil {
					continue
				}
			}
		case http.StatusAccepted:
			// A 202's hint paces the caller's next poll, it never drives
			// a retry here; without a header the caller's own backoff
			// applies, so no RetryWait fallback.
			if resp.Header.Get("Retry-After") != "" {
				r.RetryAfter = c.retryAfter(resp.Header)
			}
		}
		return r, nil
	}
}

// sleep waits d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Post issues a JSON POST to path (e.g. "/v1/solve") under the retry
// policy.
func (c *Client) Post(ctx context.Context, path string, body []byte) (*Response, error) {
	return c.Do(ctx, http.MethodPost, path, body)
}

// PostKind issues a trace-event request: POST /v1/<kind>.
func (c *Client) PostKind(ctx context.Context, kind string, body []byte) (*Response, error) {
	return c.Do(ctx, http.MethodPost, "/v1/"+kind, body)
}

// Get issues a GET to path under the retry policy.
func (c *Client) Get(ctx context.Context, path string) (*Response, error) {
	return c.Do(ctx, http.MethodGet, path, nil)
}

// Delete issues a DELETE to path under the retry policy.
func (c *Client) Delete(ctx context.Context, path string) (*Response, error) {
	return c.Do(ctx, http.MethodDelete, path, nil)
}

// Healthy reports whether GET /healthz answers 200 within ctx.
func (c *Client) Healthy(ctx context.Context) bool {
	resp, err := c.Get(ctx, "/healthz")
	return err == nil && resp.Class() == OK
}

// GetJSON issues a GET and decodes a 200 response into out; a non-200
// response or a decode failure is an error.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	resp, err := c.Get(ctx, path)
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	if err := json.Unmarshal(resp.Body, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}
