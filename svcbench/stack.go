package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"energysched/internal/client"
	"energysched/internal/router"
	"energysched/internal/server"
)

// stack is the system under test, stood up in-process on loopback
// listeners exactly as the daemons wire it: server.New handlers (and,
// for the cluster, router.New with its health-probe loop running), all
// with the shipped defaults — obs tracing included.
type stack struct {
	servers  []*server.Server
	backends []string // backend base URLs
	router   *router.Router
	front    string // the URL the client talks to

	httpSrvs  []*http.Server
	serveWG   sync.WaitGroup
	stopProbe context.CancelFunc
	probeDone chan struct{}

	spans *spanLog // benchmark-side handler spans; nil on untimed layers
}

// newStack starts n servers with cfg and, when withRouter is set, an
// affinity router in front of them. spans, when non-nil, wraps every
// handler in a benchmark-side span recorder.
func newStack(n int, withRouter bool, cfg server.Config, spans *spanLog) (*stack, error) {
	st := &stack{spans: spans}
	for i := 0; i < n; i++ {
		s := server.New(cfg)
		if _, err := s.ResumeJobs(); err != nil {
			st.close()
			return nil, err
		}
		url, err := st.listen(spans.wrap(layerServer, s.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, s)
		st.backends = append(st.backends, url)
	}
	st.front = st.backends[0]
	if !withRouter {
		return st, nil
	}
	rt, err := router.New(router.Config{Backends: st.backends, Policy: router.PolicyAffinity})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	ctx, cancel := context.WithCancel(context.Background())
	st.stopProbe = cancel
	st.probeDone = make(chan struct{})
	go func() {
		defer close(st.probeDone)
		rt.Run(ctx)
	}()
	if st.front, err = st.listen(spans.wrap(layerRouter, rt.Handler())); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.httpSrvs = append(st.httpSrvs, hs)
	st.serveWG.Add(1)
	go func() {
		defer st.serveWG.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve %s: %v", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the probe loop, drains the job managers, closes every
// listener and waits for the serve goroutines to return.
func (st *stack) close() {
	if st.stopProbe != nil {
		st.stopProbe()
		<-st.probeDone
	}
	for i := len(st.httpSrvs) - 1; i >= 0; i-- {
		st.httpSrvs[i].Close()
	}
	st.serveWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range st.servers {
		if err := s.DrainJobs(ctx); err != nil {
			logf("draining jobs: %v", err)
		}
	}
}

// newClient is the load generator's client: one keep-alive transport
// capped at conns connections to the front, no retries (a shed or a
// failure is counted, never hidden).
func newClient(base string, conns int) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	c, err := client.New(client.Config{
		BaseURL:    base,
		HTTPClient: &http.Client{Transport: tr, Timeout: 60 * time.Second},
	})
	return c, tr, err
}

// Layers a span can belong to.
const (
	layerRouter = iota
	layerServer
	numLayers
)

// Request kinds a span is filed under.
const (
	kindSolve = iota
	kindBatch
	kindSimulate
	kindJobs
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"solve", "batch", "simulate", "jobs", "other"}

func kindIndex(name string) int {
	for i, n := range kindNames {
		if n == name {
			return i
		}
	}
	return kindOther
}

// pathKind files a /v1/* path under its request kind.
func pathKind(path string) int {
	name, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/"), "/")
	return kindIndex(name)
}

// spanAgg accumulates one (layer, kind, cache disposition) cell.
type spanAgg struct {
	n   int
	sum time.Duration
}

// spanLog records benchmark-side spans around each layer's public
// handler: the span covers Handler.ServeHTTP for /v1/* requests only,
// so health probes and /stats scrapes are excluded. A nil *spanLog
// records nothing and wraps nothing.
type spanLog struct {
	mu    sync.Mutex
	cells [numLayers][numKinds][2]spanAgg // [..][..][hit?]
}

func (sl *spanLog) wrap(layer int, h http.Handler) http.Handler {
	if sl == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		hit := 0
		if w.Header().Get("X-Cache") == "hit" {
			hit = 1
		}
		sl.mu.Lock()
		c := &sl.cells[layer][pathKind(r.URL.Path)][hit]
		c.n++
		c.sum += d
		sl.mu.Unlock()
	})
}

// total sums a layer's handler time and call count over the kinds
// selected by kinds (nil = all) and dispositions selected by hit (-1 =
// both).
func (sl *spanLog) total(layer int, kinds []int, hit int) (n int, sum time.Duration) {
	if kinds == nil {
		kinds = []int{kindSolve, kindBatch, kindSimulate, kindJobs, kindOther}
	}
	for _, k := range kinds {
		for h := 0; h < 2; h++ {
			if hit >= 0 && h != hit {
				continue
			}
			c := &sl.cells[layer][k][h]
			n += c.n
			sum += c.sum
		}
	}
	return n, sum
}

// reset drops every span recorded so far (warm-up traffic).
func (sl *spanLog) reset() {
	if sl == nil {
		return
	}
	sl.mu.Lock()
	sl.cells = [numLayers][numKinds][2]spanAgg{}
	sl.mu.Unlock()
}
