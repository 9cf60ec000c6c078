// Package router implements energyrouter, the thin HTTP front that
// fans energyschedd traffic out over a pool of solver backends:
//
//	POST /v1/solve      — proxied to one backend picked by the policy
//	POST /v1/batch      — scattered over the pool by shard, gathered in
//	                      input order
//	POST /v1/simulate   — proxied like solve (same routing key, so a
//	                      simulate lands where its instance's solve ran)
//	POST /v1/sweep      — proxied, keyed by the request bytes
//	POST /v1/jobs       — campaign job submit, pinned to the ring by
//	                      instance hash (jobs.go)
//	GET  /v1/jobs/{id}  — job poll/cancel, pinned by the instance-hash
//	DELETE /v1/jobs/{id}  prefix of the ID; 404s fail over in case the
//	                      job lives on another member
//	GET  /v1/solvers    — proxied under ProbeTimeout (the registry is
//	                      identical across the pool)
//	GET  /healthz       — router liveness (503 when no backend is healthy)
//	GET  /stats         — backend counters summed + per-backend health
//	GET  /admin/backends  — current membership and health
//	POST /admin/backends  — add/remove members without a restart
//
// An exact repeat of a solve, simulate or sweep body is answered from
// the router's own response cache (respcache.go) before any routing:
// X-Cache: hit, X-Backend: router-cache, no backend hop.
//
// Routing policies are pluggable: "affinity" consistent-hashes the
// canonical core.Instance.Hash onto the pool, so every repeat of an
// instance lands on the backend already holding its cached bytes —
// the cluster-scale version of the single-node LRU win; "least-loaded"
// picks the backend with the fewest in-flight/queued requests; and
// "random" is the seeded control. Backends are health-probed; a member
// failing FailAfter consecutive probes is evicted (its arc of the hash
// ring redistributes to survivors, everything else stays put) and
// readmitted after RecoverAfter successes.
//
// On top of health probing the router carries the failure-handling
// machinery the chaos campaigns exercise: per-backend circuit breakers
// (breaker.go) shed traffic away from members failing live requests
// before any probe has noticed; and hedged requests (hedge.go) race a
// second backend when the first leg exceeds the kind's p99. Transport
// failures, backend 502/503s and corrupt (invalid-JSON 2xx) responses
// all fail over to another backend, so a fault window never surfaces
// as a caller-visible error while a clean member remains; repeats the
// response cache holds are answered even with none.
//
// Every caller request the response cache does not answer reaches a
// backend through one failover loop, forwardChain, which picks with
// pickFrom and sends with sendOne. A proxyReq describes the request:
// method, path, body, routing key, the latency kind that drives
// hedging (empty for requests that never hedge), and two properties
// of the request rather than of the path it came in on — pinned,
// which routes on the ring whatever the configured policy (job state
// lives on one member), and notFoundFails, which makes a 404 fail over
// (a poll may reach a member that does not hold the job). So breakers,
// failover counts and attempt spans cover every proxied request
// alike. The only other
// backend calls are the router's own: health probes and /stats
// scrapes.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"energysched/internal/cache"
	"energysched/internal/client"
	"energysched/internal/core"
	"energysched/internal/hist"
	"energysched/internal/obs"
)

// Routing policy names accepted by Config.Policy.
const (
	// PolicyAffinity consistent-hashes the routing key (the canonical
	// instance hash where the body has one) onto the backend pool.
	PolicyAffinity = "affinity"
	// PolicyLeastLoaded picks the backend with the fewest known
	// in-flight plus queued requests (last probed gauges plus the
	// router's own outstanding count).
	PolicyLeastLoaded = "least-loaded"
	// PolicyRandom picks a healthy backend uniformly at random — the
	// control policy for measuring what affinity buys.
	PolicyRandom = "random"
)

// Policies lists the valid policy names in presentation order.
func Policies() []string {
	return []string{PolicyAffinity, PolicyLeastLoaded, PolicyRandom}
}

// Defaults applied by New for zero Config fields.
const (
	DefaultFailAfter         = 3
	DefaultRecoverAfter      = 2
	DefaultProbeInterval     = 2 * time.Second
	DefaultProbeTimeout      = time.Second
	DefaultRequestTimeout    = 35 * time.Second
	DefaultMaxBodyBytes      = 8 << 20 // 8 MiB, matches the backend cap
	DefaultRetries           = 2
	DefaultBreakerThreshold  = 3
	DefaultBreakerBackoff    = 500 * time.Millisecond
	DefaultBreakerMaxBackoff = 8 * time.Second
	DefaultHedgeAfter        = 100 * time.Millisecond
	DefaultDegradedCacheSize = 512
)

// instanceKeyMemoSize bounds the router's instance-key memo (raw
// instance bytes → Instance.Hash): the default result caches of four
// backends, so every instance a small cluster still holds results for
// keys without a decode. An entry is ~200 bytes, under 1 MB in all.
const instanceKeyMemoSize = 4 * 1024

// Config tunes one Router. Backends is required; zero fields get the
// package defaults.
type Config struct {
	// Backends are the backend base URLs, e.g. "http://10.0.0.2:8080".
	// The list order is the ring identity: two routers given the same
	// list route identically.
	Backends []string
	// Policy picks backends: affinity (default), least-loaded, random.
	Policy string
	// Replicas is the virtual-node count per backend on the affinity
	// ring (default DefaultReplicas).
	Replicas int
	// FailAfter evicts a backend after this many consecutive failed
	// health probes (default DefaultFailAfter).
	FailAfter int
	// RecoverAfter readmits an evicted backend after this many
	// consecutive successful probes (default DefaultRecoverAfter).
	RecoverAfter int
	// ProbeInterval is the Run loop's probe period (default
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each health probe, each backend /stats
	// scrape and each GET /v1/solvers (default DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// RequestTimeout bounds each proxied backend request; keep it
	// above the backends' solve timeout so the backend's own 504
	// arrives instead of a router-side cut (default
	// DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds accepted request bodies; larger get 413
	// (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Retries is how many additional backends a request fails over to
	// after a transport failure (default DefaultRetries).
	Retries int
	// Seed drives the random policy and all jittered backoffs
	// (default 1).
	Seed int64
	// BreakerThreshold opens a member's circuit after this many
	// consecutive live-request failures (default
	// DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerBackoff is the first open window; every consecutive
	// reopen doubles it, jittered, up to BreakerMaxBackoff (defaults
	// DefaultBreakerBackoff, DefaultBreakerMaxBackoff).
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// HedgeAfter is the hedge delay used until a kind has enough
	// latency samples for a p99-derived one (default
	// DefaultHedgeAfter).
	HedgeAfter time.Duration
	// DisableHedging turns hedged requests off.
	DisableHedging bool
	// DegradedCacheSize is the capacity of the router's response
	// cache (respcache.go), which answers exact repeats of solve,
	// simulate and sweep bodies without a backend hop, whether or not
	// any backend is up (default DefaultDegradedCacheSize).
	DegradedCacheSize int
	// DisableDegraded turns the response cache off: every request is
	// proxied.
	DisableDegraded bool
	// HTTPClient, when set, issues all backend requests — tests share
	// one transport; production leaves it nil and gets per-request
	// timeouts from RequestTimeout.
	HTTPClient *http.Client
	// DisableTracing turns request-scoped tracing off; /debug/traces
	// then serves an empty ring and traced-path spans cost nothing.
	DisableTracing bool
	// TraceBuffer is the /debug/traces ring capacity (default
	// obs.DefaultTraceBuffer).
	TraceBuffer int
	// TraceSeed seeds generated trace IDs (default Seed, making a
	// router's IDs reproducible alongside its routing decisions).
	TraceSeed int64
	// TraceLogger, when set, receives one structured line per finished
	// trace.
	TraceLogger *slog.Logger
}

// member is one backend: its client, health state and counters. A
// member belongs to pool snapshots, not to the Router — requests that
// hold an old snapshot keep using its members even while an admin
// change swaps the pool under them.
type member struct {
	url    string
	client *client.Client
	// ringID is the member's stable ring identity: its position in the
	// original Backends list, or the next fresh ID for members added
	// at runtime. Ring points derive from ringID, so removing a member
	// remaps only its own arc.
	ringID int

	mu          sync.Mutex
	healthyBool bool // guarded copy behind healthy
	consecFails int
	consecOKs   int

	br breaker // per-member circuit breaker (its own lock)

	healthy      atomic.Bool  // hot-path view of healthyBool
	outstanding  atomic.Int64 // proxied requests currently in flight
	probedLoad   atomic.Int64 // inFlight+queued from the last good probe
	proxied      atomic.Int64 // requests answered by this backend
	evictions    atomic.Int64
	readmissions atomic.Int64
}

// pool is one immutable membership snapshot: the member list and the
// ring built from their ringIDs. Handlers load one snapshot per
// request, so an admin add/remove is atomic from any request's point
// of view.
type pool struct {
	members []*member
	ring    *ring
}

// healthyCount returns how many of the pool's members are healthy.
func (p *pool) healthyCount() int {
	n := 0
	for _, m := range p.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// Router is the proxy state. Create with New; it is safe for
// concurrent use. Health probing only happens through Run or
// ProbeOnce — a Router that never probes trusts every backend.
type Router struct {
	cfg     Config
	pool    atomic.Pointer[pool]
	mux     *http.ServeMux
	start   time.Time
	tracer  *obs.Tracer // nil when tracing is disabled
	metrics *obs.Registry

	rndMu sync.Mutex
	rnd   *rand.Rand

	adminMu    sync.Mutex // serializes membership changes
	nextRingID int

	latMu   sync.Mutex
	latency map[string]*hist.Atomic // per-kind success latency, drives hedging

	responses *cache.Cache[[]byte] // last-good responses by kind+body
	keys      *core.InstanceKeys   // raw instance bytes → routing key

	requests   atomic.Int64 // HTTP requests accepted by the router
	proxied    atomic.Int64 // backend requests issued (incl. scatter legs)
	retried    atomic.Int64 // failover re-sends after a failed attempt
	badGateway atomic.Int64 // 502s for junk/unreachable backends
	noBackend  atomic.Int64 // 503s with zero healthy backends
	scattered  atomic.Int64 // batch requests split across backends
	panics     atomic.Int64 // handler panics contained by the recovery middleware
	cacheHits  atomic.Int64 // responses served from the response cache

	breakerOpened   atomic.Int64 // closed/half-open → open transitions
	breakerHalfOpen atomic.Int64 // open → half-open trial admissions
	breakerClosed   atomic.Int64 // open/half-open → closed recoveries
	hedgesFired     atomic.Int64 // second legs launched
	hedgesWon       atomic.Int64 // second legs that answered first
}

// New returns a ready Router over cfg.Backends with zero fields
// defaulted.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: Config.Backends is required")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyAffinity
	}
	switch cfg.Policy {
	case PolicyAffinity, PolicyLeastLoaded, PolicyRandom:
	default:
		return nil, fmt.Errorf("router: unknown policy %q (have affinity, least-loaded, random)", cfg.Policy)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = DefaultRecoverAfter
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerBackoff <= 0 {
		cfg.BreakerBackoff = DefaultBreakerBackoff
	}
	if cfg.BreakerMaxBackoff <= 0 {
		cfg.BreakerMaxBackoff = DefaultBreakerMaxBackoff
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.DegradedCacheSize <= 0 {
		cfg.DegradedCacheSize = DefaultDegradedCacheSize
	}
	if cfg.TraceSeed == 0 {
		cfg.TraceSeed = cfg.Seed
	}
	rt := &Router{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		rnd:     rand.New(rand.NewSource(cfg.Seed)),
		latency: map[string]*hist.Atomic{},
		keys:    core.NewInstanceKeys(instanceKeyMemoSize),
	}
	if !cfg.DisableTracing {
		rt.tracer = obs.NewTracer(obs.TracerConfig{
			Service: "energyrouter",
			Buffer:  cfg.TraceBuffer,
			Seed:    cfg.TraceSeed,
			Logger:  cfg.TraceLogger,
		})
	}
	if !cfg.DisableDegraded {
		rt.responses = cache.New[[]byte](cfg.DegradedCacheSize)
	}
	members := make([]*member, 0, len(cfg.Backends))
	for i, u := range cfg.Backends {
		m, err := rt.newMember(u, i)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	rt.nextRingID = len(members)
	rt.pool.Store(newPool(members, cfg.Replicas))
	rt.mux.HandleFunc("POST /v1/solve", rt.proxyHandler("solve"))
	rt.mux.HandleFunc("POST /v1/simulate", rt.proxyHandler("simulate"))
	rt.mux.HandleFunc("POST /v1/sweep", rt.proxyHandler("sweep"))
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleJobSubmit)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobGet)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJobDelete)
	rt.mux.HandleFunc("GET /v1/solvers", rt.handleSolvers)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.HandleFunc("GET /admin/backends", rt.handleBackendsGet)
	rt.mux.HandleFunc("POST /admin/backends", rt.handleBackendsPost)
	rt.metrics = rt.newRegistry()
	rt.mux.Handle("GET /metrics", obs.MetricsHandler(rt.metrics))
	rt.mux.Handle("GET /debug/traces", obs.TracesHandler(rt.tracer))
	return rt, nil
}

// newMember builds one healthy member for url with the given ring
// identity.
func (rt *Router) newMember(url string, ringID int) (*member, error) {
	cl, err := client.New(client.Config{
		BaseURL:    url,
		HTTPClient: rt.cfg.HTTPClient,
		Timeout:    rt.cfg.RequestTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("router: backend %q: %w", url, err)
	}
	m := &member{url: cl.BaseURL(), client: cl, ringID: ringID, healthyBool: true}
	m.healthy.Store(true)
	return m, nil
}

// newPool snapshots a member list into an immutable pool with its
// ring.
func newPool(members []*member, replicas int) *pool {
	ids := make([]int, len(members))
	for i, m := range members {
		ids[i] = m.ringID
	}
	return &pool{members: members, ring: buildRing(ids, replicas)}
}

// Handler returns the router's http.Handler: the mux behind the obs
// wrapper that assigns (or honors) the request ID every /v1/ request
// carries downstream to its backend, with a panic-recovery layer so a
// handler bug answers a 500 JSON envelope (naming the request's trace
// ID) instead of tearing the connection down. http.ErrAbortHandler is
// re-raised: it is the sanctioned way to abort a response, not a bug.
func (rt *Router) Handler() http.Handler {
	return obs.WrapHandler(rt.tracer, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.requests.Add(1)
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			rt.panics.Add(1)
			rt.writePanic(w, rec)
		}()
		rt.mux.ServeHTTP(w, r)
	}))
}

// writePanic is the recovery middleware's best-effort 500: if the
// handler already wrote a header this write fails harmlessly, the
// connection is torn down, and the panic still only cost one request.
func (rt *Router) writePanic(w http.ResponseWriter, rec any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	json.NewEncoder(w).Encode(map[string]string{
		"error":     fmt.Sprintf("internal error: %v", rec),
		"requestId": w.Header().Get(obs.RequestIDHeader),
	})
}

// Tracer returns the router's tracer, nil when tracing is disabled.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// Policy returns the resolved routing policy name.
func (rt *Router) Policy() string { return rt.cfg.Policy }

// pickFrom chooses a backend for key in p under policy, skipping unhealthy members,
// those in tried, and — on the first pass — those whose circuit
// breaker refuses traffic. When every candidate is breaker-blocked it
// falls back to health-only selection: breakers steer traffic, they
// never self-inflict an outage. It returns -1 when no member
// qualifies. Selection is read-only; the caller commits the breaker
// transition via sendOne → brEnter.
func (rt *Router) pickFrom(p *pool, policy, key string, tried map[int]bool) int {
	now := time.Now()
	if i := rt.pickBy(p, policy, key, func(i int) bool {
		m := p.members[i]
		return m.healthy.Load() && !tried[i] && m.br.canTry(now)
	}); i >= 0 {
		return i
	}
	return rt.pickBy(p, policy, key, func(i int) bool {
		return p.members[i].healthy.Load() && !tried[i]
	})
}

// pickBy runs policy over the members alive() admits.
func (rt *Router) pickBy(p *pool, policy, key string, alive func(int) bool) int {
	switch policy {
	case PolicyLeastLoaded:
		best, bestLoad := -1, int64(0)
		for i, m := range p.members {
			if !alive(i) {
				continue
			}
			load := m.probedLoad.Load() + m.outstanding.Load()
			if best < 0 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	case PolicyRandom:
		var candidates []int
		for i := range p.members {
			if alive(i) {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			return -1
		}
		rt.rndMu.Lock()
		i := candidates[rt.rnd.Intn(len(candidates))]
		rt.rndMu.Unlock()
		return i
	default: // PolicyAffinity
		return p.ring.lookup(key, alive)
	}
}

// routingKey derives the affinity key for one request body. Bodies
// carrying an instance key on the canonical core.Instance.Hash — the
// same hash that keys every backend's result cache, so repeats (and a
// simulate following its solve) land on the backend already holding
// the bytes. Anything else, including bodies the backend will reject,
// keys on the raw bytes: still deterministic, spread by FNV.
func (rt *Router) routingKey(kind string, body []byte) string {
	switch kind {
	case "solve", "simulate", "jobs":
		var probe struct {
			Instance json.RawMessage `json:"instance"`
		}
		if json.Unmarshal(body, &probe) == nil && len(probe.Instance) > 0 {
			if hash, _, err := rt.keys.Key(probe.Instance); err == nil {
				return hash
			}
		}
	}
	return bodyKey(body)
}

// instanceKey keys one batch item: the canonical instance hash when
// the item parses, the raw bytes otherwise.
func (rt *Router) instanceKey(raw json.RawMessage) string {
	if hash, _, err := rt.keys.Key(raw); err == nil {
		return hash
	}
	return bodyKey(raw)
}

// bodyKey is the routing key of bytes that carry no instance.
func bodyKey(b []byte) string {
	return "body:" + strconv.FormatUint(hashKey(string(b)), 16)
}

// errNoBackend is the all-evicted outcome: 503, distinct from the
// per-backend 502s.
var errNoBackend = errors.New("router: no healthy backend")

// proxyReq is one caller request as forwardChain sends it to a
// backend. It travels by value, so the hot path allocates nothing for
// it.
type proxyReq struct {
	method, path string
	body         []byte // nil for GET and DELETE
	key          string // routing key
	// kind names the latency histogram a successful attempt feeds and
	// the hedge delay is derived from; empty for requests that never
	// hedge (jobs, /v1/solvers).
	kind string
	// pinned routes on the ring whatever Config.Policy says: a job
	// lives on the one member that accepted it.
	pinned bool
	// notFoundFails makes a 404 fail over: a job poll or cancel may
	// reach a member that does not hold the job.
	notFoundFails bool
}

// policyFor is the policy a request is picked under: the ring when it
// is pinned, the configured policy otherwise.
func (rt *Router) policyFor(pinned bool) string {
	if pinned {
		return PolicyAffinity
	}
	return rt.cfg.Policy
}

// unusable reports whether a backend response is an infrastructure
// failure the router fails over (and the breaker counts against the
// member): a 502/503, or a 2xx other than 204 whose body is not valid
// JSON — a half-written response from a dying process. A 204's empty
// body is the correct answer to a job cancel. 4xx, 500 and 504 are
// the backend's answer to the request and are relayed, not retried.
func unusable(resp *client.Response) bool {
	switch resp.Status {
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	case http.StatusNoContent:
		return false
	}
	return resp.Status < 300 && !resp.ValidJSON()
}

// sendOne issues one attempt of rq to m, bounded by perAttempt when
// positive, and feeds the outcome to the member's breaker and, when
// rq has a kind, the kind's latency histogram. A failure caused by the
// caller's own context ending (a parent deadline, a hedge loser being
// cancelled) says nothing about the backend and is not charged to the
// breaker.
func (rt *Router) sendOne(ctx context.Context, m *member, rq proxyReq, perAttempt time.Duration) (*client.Response, error) {
	rt.brEnter(m)
	actx := ctx
	var cancel context.CancelFunc
	if perAttempt > 0 {
		actx, cancel = context.WithTimeout(ctx, perAttempt)
		defer cancel()
	}
	m.outstanding.Add(1)
	rt.proxied.Add(1)
	t0 := time.Now()
	resp, err := m.client.Do(actx, rq.method, rq.path, rq.body)
	m.outstanding.Add(-1)
	if err != nil {
		if ctx.Err() == nil {
			rt.brRecord(m, false)
		}
		return nil, err
	}
	m.proxied.Add(1)
	ok := !unusable(resp)
	rt.brRecord(m, ok)
	if ok && rq.kind != "" {
		rt.observeLatency(rq.kind, time.Since(t0))
	}
	return resp, nil
}

// forwardChain is the failover loop every proxied request runs
// through, trying at most Retries+1 members. Members in tried are
// skipped; preferred ≥ 0 short-circuits the policy for the first
// attempt (the batch scatter target, a hedge's pre-picked first leg).
// Besides transport errors, an unusable response — 502/503, corrupt
// 2xx — fails over, and so does a 404 when rq.notFoundFails: solves
// are deterministic and idempotent, and a job submit is keyed by its
// content, so re-sending is always safe. When every attempt fails the
// last response is returned rather than masked (an unknown job's 404
// is relayed after the sweep), and a chain cut short by its own
// context's end returns that error without blaming further members.
func (rt *Router) forwardChain(ctx context.Context, p *pool, rq proxyReq, tried map[int]bool, preferred int, perAttempt time.Duration) (*client.Response, *member, error) {
	policy := rt.policyFor(rq.pinned)
	tr := obs.TraceFromContext(ctx)
	var lastErr error
	var lastResp *client.Response
	var lastMember *member
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		i := -1
		if attempt == 0 && preferred >= 0 && preferred < len(p.members) &&
			p.members[preferred].healthy.Load() && !tried[preferred] {
			i = preferred
		} else {
			i = rt.pickFrom(p, policy, rq.key, tried)
		}
		if i < 0 {
			break
		}
		m := p.members[i]
		actx := ctx
		span := 0
		var picked string
		if tr != nil {
			// The first attempt is the pick; later ones are failovers.
			// The note records the member and its breaker state at pick
			// time, and the attempt's span ID rides X-Span-Id so the
			// backend's own trace can be joined back to this leg.
			name := "attempt"
			if attempt > 0 || len(tried) > 0 {
				name = "failover"
			}
			span = tr.StartSpan(name)
			picked = m.url + " breaker=" + m.br.stateName() + " "
			actx = obs.ContextWithSpanID(ctx, strconv.Itoa(span))
		}
		resp, err := rt.sendOne(actx, m, rq, perAttempt)
		if err != nil {
			if ctx.Err() != nil {
				tr.EndSpan(span, picked+"canceled")
				return nil, nil, err
			}
			tr.EndSpan(span, picked+"transport error")
			lastErr = err
			tried[i] = true
			rt.retried.Add(1)
			continue
		}
		if unusable(resp) || (rq.notFoundFails && resp.Status == http.StatusNotFound) {
			if tr != nil {
				tr.EndSpan(span, picked+"unusable status "+strconv.Itoa(resp.Status))
			}
			lastResp, lastMember = resp, m
			tried[i] = true
			rt.retried.Add(1)
			continue
		}
		if tr != nil {
			tr.EndSpan(span, picked+"status "+strconv.Itoa(resp.Status))
		}
		return resp, m, nil
	}
	if lastResp != nil {
		return lastResp, lastMember, nil
	}
	if lastErr != nil {
		return nil, nil, lastErr
	}
	return nil, nil, errNoBackend
}

// proxyHandler serves one single-backend endpoint: read, answer from
// the response cache when it holds these exact bytes, otherwise route
// (hedged) and relay, remembering a usable 200.
func (rt *Router) proxyHandler(kind string) http.HandlerFunc {
	path := "/v1/" + kind
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := rt.readBody(w, r)
		if err != nil {
			return
		}
		key := rt.responseKey(kind, body)
		if rt.serveCached(w, r, key) {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		defer cancel()
		resp, m, err := rt.forwardHedged(ctx, proxyReq{
			method: http.MethodPost, path: path, body: body,
			key: rt.routingKey(kind, body), kind: kind,
		})
		if err != nil {
			rt.writeForwardError(w, err)
			return
		}
		if resp.Status == http.StatusOK && !unusable(resp) {
			rt.cachePut(key, resp.Body)
		}
		rt.relay(w, resp, m)
	}
}

// relay writes a backend response through to the caller, preserving
// the cache disposition and Retry-After hints and naming the backend
// for observability. The router's contract is that every response it
// writes is valid JSON — a backend body that isn't (half-written
// output from a dying process, junk from something that isn't an
// energyschedd) becomes a 502 envelope instead of being passed
// through.
func (rt *Router) relay(w http.ResponseWriter, resp *client.Response, m *member) {
	if !resp.ValidJSON() {
		rt.badGateway.Add(1)
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("backend %s returned invalid JSON (status %d)", m.url, resp.Status))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.XCache != "" {
		w.Header().Set("X-Cache", resp.XCache)
	}
	if resp.Location != "" {
		w.Header().Set("Location", resp.Location)
	}
	if resp.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((resp.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("X-Backend", m.url)
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// readBody reads the request body under the MaxBodyBytes cap, writing
// the error response itself on failure.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			rt.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
		} else {
			rt.writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return nil, err
	}
	return body, nil
}

// writeForwardError maps a forward failure onto the wire: no healthy
// backend is 503 (try again once probes readmit someone), a transport
// failure that exhausted failover is 502.
func (rt *Router) writeForwardError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoBackend) {
		rt.noBackend.Add(1)
		rt.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	rt.badGateway.Add(1)
	rt.writeError(w, http.StatusBadGateway, "all backends failed: "+err.Error())
}

func (rt *Router) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleSolvers proxies GET /v1/solvers under ProbeTimeout. The
// registry is identical across the pool, so any member's answer is
// the cluster's.
func (rt *Router) handleSolvers(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
	defer cancel()
	rt.forwardRelay(ctx, w, proxyReq{method: http.MethodGet, path: "/v1/solvers", key: "/v1/solvers"})
}

// forwardRelay runs rq's failover chain over the current pool and
// writes the outcome: the answer relayed, or the forward error.
func (rt *Router) forwardRelay(ctx context.Context, w http.ResponseWriter, rq proxyReq) {
	resp, m, err := rt.forwardChain(ctx, rt.pool.Load(), rq, map[int]bool{}, -1, 0)
	if err != nil {
		rt.writeForwardError(w, err)
		return
	}
	rt.relay(w, resp, m)
}

// handleHealthz reports router liveness: healthy while at least one
// backend is.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p := rt.pool.Load()
	n := p.healthyCount()
	status := http.StatusOK
	state := "ok"
	if n == 0 {
		status = http.StatusServiceUnavailable
		state = "no healthy backends"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status": state, "healthyBackends": n, "backends": len(p.members),
	})
}

// handleStats serves GET /stats: the router's own blocks rendered from
// its registry, plus the policy and the top-level counters summed over
// every backend, scraped concurrently. A backend that answers counts
// whether healthy or not; one that does not is marked unreachable and
// left out of the sums.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
	defer cancel()
	p := rt.pool.Load()
	scrapes := make([]*client.Stats, len(p.members))
	var wg sync.WaitGroup
	for i, m := range p.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			var s client.Stats
			if err := m.client.GetJSON(ctx, "/stats", &s); err == nil {
				scrapes[i] = &s
			}
		}(i, m)
	}
	wg.Wait()

	doc := rt.metrics.Stats()
	doc["policy"] = rt.cfg.Policy
	var sum client.Stats
	for i, m := range p.members {
		if scrapes[i] != nil {
			sum.Add(scrapes[i])
			continue
		}
		for _, row := range doc["backends"].([]map[string]any) {
			if row["url"] == m.url {
				row["unreachable"] = true
			}
		}
	}
	// The sums sit at the top level under the names a single
	// energyschedd uses, the ones client.Stats's tags spell. Neither
	// call can fail: a struct of integers, decoded from its own bytes.
	sumJSON, _ := json.Marshal(sum)
	_ = json.Unmarshal(sumJSON, &doc)
	writeJSON(w, doc)
}
