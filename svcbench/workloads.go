package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"energysched/internal/client"
	"energysched/internal/rng"
	"energysched/internal/server"
)

// runConfig is what every workload is parameterised by.
type runConfig struct {
	seed      int64
	seconds   float64
	conns     int    // client connection cap (nproc)
	stateRoot string // where campaign-jobs keeps its state directories
}

// env is one stood-up workload: the stack, the client and the inputs.
type env struct {
	st        *stack
	c         *client.Client
	tr        *http.Transport
	evs       []event  // open-loop stream; nil for campaign-jobs
	instances [][]byte // campaign-jobs chains, one per regime
	stateDir  string
}

// probeDir is a fresh directory for the checkpoint probe, removed with
// the environment.
func (e *env) probeDir(rc runConfig) string {
	if e.stateDir == "" {
		if err := os.MkdirAll(rc.stateRoot, 0o755); err != nil {
			logf("%v", err)
		}
		dir, err := os.MkdirTemp(rc.stateRoot, "probe-")
		if err != nil {
			logf("%v", err)
		}
		e.stateDir = dir
	}
	return e.stateDir
}

func (e *env) close() {
	if e.tr != nil {
		e.tr.CloseIdleConnections()
	}
	if e.st != nil {
		e.st.close()
	}
	if e.stateDir != "" {
		if err := os.RemoveAll(e.stateDir); err != nil {
			logf("removing %s: %v", e.stateDir, err)
		}
	}
}

// workload is one benchmark traffic mix.
type workload struct {
	name  string
	setup func(ctx context.Context, rc runConfig, spans *spanLog) (*env, error)
	// sample selects the open-loop events whose responses are checked.
	sample func(seed int64) func(i int) bool
}

var workloads = []workload{
	{name: "hot-cluster", setup: setupHot, sample: func(int64) func(int) bool { return func(int) bool { return true } }},
	{name: "cold-single", setup: setupCold, sample: coldSample},
	{name: "campaign-jobs", setup: setupJobs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// coldSample checks a seeded 1-in-20 sample of cold-single's events:
// every response is distinct there, and a tri-crit re-solve costs up
// to tens of milliseconds.
func coldSample(seed int64) func(i int) bool {
	return func(i int) bool {
		s := rng.At(seed^0x5eed, i)
		return s.Uint64()%20 == 0
	}
}

func newEnv(rc runConfig, n int, withRouter bool, cfg server.Config, spans *spanLog) (*env, error) {
	st, err := newStack(n, withRouter, cfg, spans)
	if err != nil {
		return nil, err
	}
	c, tr, err := newClient(st.front, rc.conns)
	if err != nil {
		st.close()
		return nil, err
	}
	return &env{st: st, c: c, tr: tr}, nil
}

// post sends one set-up request and insists on success.
func (e *env) post(ctx context.Context, path string, body []byte) (*client.Response, error) {
	resp, err := e.c.Post(ctx, path, body)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, fmt.Errorf("set-up %s: %w", path, err)
	}
	return resp, nil
}

// setupHot: three backends behind an affinity router, the loadgen
// stream, and every distinct body sent once so the timed phase finds
// warm caches.
func setupHot(ctx context.Context, rc runConfig, spans *spanLog) (*env, error) {
	evs, err := hotEvents(rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(rc, 3, true, server.Config{}, spans)
	if err != nil {
		return nil, err
	}
	e.evs = evs
	seen := map[string]bool{}
	for _, ev := range evs {
		k := ev.kind + "\x00" + string(ev.body)
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, err := e.post(ctx, "/v1/"+ev.kind, ev.body); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// setupCold: one server, the generated stream, and the simulate pool's
// tri-crit instances solved so simulate requests read their solve from
// the cache.
func setupCold(ctx context.Context, rc runConfig, spans *spanLog) (*env, error) {
	sims, err := coldSimInstances(rc.seed)
	if err != nil {
		return nil, err
	}
	evs, err := coldEvents(rc.seed, rc.seconds, sims)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(rc, 1, false, server.Config{}, spans)
	if err != nil {
		return nil, err
	}
	e.evs = evs
	for _, raw := range sims {
		body, err := marshalBody(map[string]any{"instance": json.RawMessage(raw)})
		if err == nil {
			_, err = e.post(ctx, "/v1/solve", body)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// setupJobs: one server with a durable state directory, both chains
// solved, and one small job per regime run to completion so the job
// manager, checkpoint path and simulator are warm.
func setupJobs(ctx context.Context, rc runConfig, spans *spanLog) (*env, error) {
	instances, err := jobInstances(rc.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.stateRoot, "jobs-")
	if err != nil {
		return nil, err
	}
	e, err := newEnv(rc, 1, false, server.Config{StateDir: filepath.Join(dir, "state")}, spans)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.stateDir = dir
	e.instances = instances
	for i, raw := range instances {
		solve, err := marshalBody(map[string]any{"instance": json.RawMessage(raw)})
		if err == nil {
			_, err = e.post(ctx, "/v1/solve", solve)
		}
		var job []byte
		if err == nil {
			job, err = marshalBody(map[string]any{"instance": json.RawMessage(raw), "trials": 8192, "simSeed": -1 - i})
		}
		if err == nil {
			var ack *client.JobAck
			if ack, err = e.c.SubmitJob(ctx, job); err == nil {
				err = waitJob(ctx, e.c, ack.ID)
			}
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("campaign-jobs warm-up: %w", err)
		}
	}
	return e, nil
}

// waitJob polls a set-up job every jobPoll until it finishes.
func waitJob(ctx context.Context, c *client.Client, id string) error {
	for {
		resp, err := c.JobStatus(ctx, id)
		if err != nil {
			return err
		}
		if resp.Status != http.StatusAccepted {
			return resp.Err()
		}
		time.Sleep(jobPoll)
	}
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu     time.Duration
	rssKB   int64
	alloc   uint64
	mallocs uint64
	gcs     uint32
}

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		logf("getrusage: %v", err)
	}
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssKB:   ru.Maxrss,
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// counters are the /stats fields the per-layer report reads, summed
// over the backends, plus the router's resilience block on the
// cluster.
type counters struct {
	hits, misses, evictions, coalesced, shed, checkpoints, hedges, failovers int64
}

func (a counters) sub(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, evictions: a.evictions - b.evictions,
		coalesced: a.coalesced - b.coalesced, shed: a.shed - b.shed, checkpoints: a.checkpoints - b.checkpoints,
		hedges: a.hedges - b.hedges, failovers: a.failovers - b.failovers,
	}
}

// statsJSON is the subset of /stats scrape reads; a server fills the
// top-level fields, the router the resilience block.
type statsJSON struct {
	Shed      int64 `json:"shed"`
	Coalesced int64 `json:"coalesced"`
	Cache     struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Jobs struct {
		Checkpoints int64 `json:"checkpoints"`
	} `json:"jobs"`
	Resilience struct {
		Failovers   int64 `json:"failovers"`
		HedgesFired int64 `json:"hedgesFired"`
	} `json:"resilience"`
}

// getStats reads one /stats document through a client of its own, so
// the load generator's connections never carry it.
func getStats(ctx context.Context, base string) (statsJSON, error) {
	var s statsJSON
	c, err := client.New(client.Config{BaseURL: base, Timeout: 10 * time.Second})
	if err == nil {
		err = c.GetJSON(ctx, "/stats", &s)
	}
	return s, err
}

// scrape sums the backends' counters and reads the router's.
func (e *env) scrape(ctx context.Context) (counters, error) {
	var out counters
	for _, url := range e.st.backends {
		s, err := getStats(ctx, url)
		if err != nil {
			return out, err
		}
		out.hits += s.Cache.Hits
		out.misses += s.Cache.Misses
		out.evictions += s.Cache.Evictions
		out.coalesced += s.Coalesced
		out.shed += s.Shed
		out.checkpoints += s.Jobs.Checkpoints
	}
	if e.st.router != nil {
		s, err := getStats(ctx, e.st.front)
		if err != nil {
			return out, err
		}
		out.hedges = s.Resilience.HedgesFired
		out.failovers = s.Resilience.Failovers
	}
	return out, nil
}
