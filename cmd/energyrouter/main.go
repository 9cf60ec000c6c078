// Command energyrouter is the scale-out front for energyschedd: a thin
// HTTP router that proxies the solve service's endpoints to a pool of
// backend daemons, with pluggable routing policies, health-checked
// eviction/readmission and batch scatter/gather.
//
// Usage:
//
//	energyrouter -backends http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	             [-addr :8080] [-policy affinity] [-probe-interval 2s] \
//	             [-fail-after 3] [-recover-after 2] [-retries 2] \
//	             [-timeout 35s] [-max-body 8388608] [-seed 1] \
//	             [-breaker-threshold 3] [-breaker-backoff 500ms] \
//	             [-breaker-max-backoff 8s] [-hedge-after 100ms] \
//	             [-no-hedging] [-degraded-cache 512] [-no-degraded] \
//	             [-pprof] [-no-tracing] [-trace-buffer 256] \
//	             [-trace-seed 0] [-trace-log]
//
// Policies:
//
//	affinity      consistent-hash on the canonical instance hash —
//	              every repeat of an instance lands on the backend
//	              already caching it (default)
//	least-loaded  backend with the fewest in-flight + queued requests
//	random        seeded uniform pick (the control)
//
// Endpoints match energyschedd: POST /v1/solve, /v1/batch (scattered
// by shard, gathered in input order), /v1/simulate, /v1/sweep, GET
// /v1/solvers, /healthz and /stats (backend counters summed, plus
// per-backend health, router and resilience counters). GET /metrics
// serves the router-owned counters as Prometheus text exposition, GET
// /debug/traces the ring of recent request traces (pick, failover and
// hedge spans), and -pprof mounts net/http/pprof under /debug/pprof/.
// GET/POST /admin/backends reads and changes pool membership live:
//
//	curl -X POST localhost:8080/admin/backends \
//	     -d '{"add":["http://10.0.0.4:8080"],"remove":["http://10.0.0.2:8080"]}'
//
// An exact repeat of a solve, simulate or sweep body is answered from
// the router's response cache without a backend hop (X-Cache: hit,
// X-Backend: router-cache); -degraded-cache sizes that cache and
// -no-degraded turns it off. Batch and job requests are always proxied.
//
// Failure handling: per-backend circuit breakers steer traffic away
// from members failing live requests before the prober notices, and
// hedged requests race a second backend when the first leg outlives
// the kind's observed p99. Repeats the response cache holds are served
// whatever the backends' state.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"energysched/internal/router"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	policy := flag.String("policy", router.PolicyAffinity,
		"routing policy: "+strings.Join(router.Policies(), " | "))
	probeInterval := flag.Duration("probe-interval", router.DefaultProbeInterval, "health-probe period")
	probeTimeout := flag.Duration("probe-timeout", router.DefaultProbeTimeout, "timeout of each health probe, /stats scrape and GET /v1/solvers")
	failAfter := flag.Int("fail-after", router.DefaultFailAfter, "consecutive failed probes before eviction")
	recoverAfter := flag.Int("recover-after", router.DefaultRecoverAfter, "consecutive successful probes before readmission")
	retries := flag.Int("retries", router.DefaultRetries, "backend failover attempts per request after transport errors")
	timeout := flag.Duration("timeout", router.DefaultRequestTimeout, "per-request backend timeout (keep above the backends' solve timeout)")
	maxBody := flag.Int64("max-body", router.DefaultMaxBodyBytes, "max request body bytes")
	replicas := flag.Int("replicas", router.DefaultReplicas, "virtual nodes per backend on the affinity ring")
	seed := flag.Int64("seed", 1, "random-policy and breaker/hedge jitter seed")
	breakerThreshold := flag.Int("breaker-threshold", router.DefaultBreakerThreshold, "consecutive request failures before a backend's circuit opens")
	breakerBackoff := flag.Duration("breaker-backoff", router.DefaultBreakerBackoff, "initial open-circuit window (doubles per consecutive open)")
	breakerMaxBackoff := flag.Duration("breaker-max-backoff", router.DefaultBreakerMaxBackoff, "cap on the open-circuit window")
	hedgeAfter := flag.Duration("hedge-after", router.DefaultHedgeAfter, "hedge delay before per-kind p99 is learned")
	noHedging := flag.Bool("no-hedging", false, "disable hedged requests")
	degradedCache := flag.Int("degraded-cache", router.DefaultDegradedCacheSize, "response cache entries: exact solve/simulate/sweep repeats answered at the router")
	noDegraded := flag.Bool("no-degraded", false, "disable the router's response cache (proxy every request)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	noTracing := flag.Bool("no-tracing", false, "disable request-scoped tracing (/debug/traces serves an empty ring)")
	traceBuffer := flag.Int("trace-buffer", 0, "recent-trace ring capacity (0 = default)")
	traceSeed := flag.Int64("trace-seed", 0, "trace-ID stream seed (0 = -seed)")
	traceLog := flag.Bool("trace-log", false, "log one structured line per completed traced request")
	flag.Parse()

	if *backends == "" {
		log.Fatal("energyrouter: -backends is required")
	}
	var traceLogger *slog.Logger
	if *traceLog {
		traceLogger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	rt, err := router.New(router.Config{
		Backends:       strings.Split(*backends, ","),
		Policy:         *policy,
		Replicas:       *replicas,
		FailAfter:      *failAfter,
		RecoverAfter:   *recoverAfter,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Retries:        *retries,
		Seed:           *seed,

		BreakerThreshold:  *breakerThreshold,
		BreakerBackoff:    *breakerBackoff,
		BreakerMaxBackoff: *breakerMaxBackoff,
		HedgeAfter:        *hedgeAfter,
		DisableHedging:    *noHedging,
		DegradedCacheSize: *degradedCache,
		DisableDegraded:   *noDegraded,
		DisableTracing:    *noTracing,
		TraceBuffer:       *traceBuffer,
		TraceSeed:         *traceSeed,
		TraceLogger:       traceLogger,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	handler := rt.Handler()
	if *pprofOn {
		// Mount the profiler explicitly instead of relying on the
		// DefaultServeMux side-effect registration, so the router mux
		// stays authoritative for every other path.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Print("pprof enabled on /debug/pprof/")
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("energyrouter listening on %s (policy %s, %d backends, probe every %v)",
		*addr, *policy, len(strings.Split(*backends, ",")), *probeInterval)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		log.Print("energyrouter shutting down, draining proxied requests")
		sctx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("forced shutdown: %v", err)
			hs.Close()
		}
	}
}
