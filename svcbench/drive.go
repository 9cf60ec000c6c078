package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"energysched/internal/client"
)

// maxOutstanding bounds the open-loop generator's in-flight requests.
// Far above what the sized loads ever reach (a few dozen); hitting it
// means the stack has fallen behind, which then shows as generator lag.
const maxOutstanding = 4096

// opResult is one timed request as the client saw it.
type opResult struct {
	kind     int
	lag      time.Duration // due → issued
	latency  time.Duration // due → last response byte
	connWait time.Duration // GetConn → GotConn (traced run only)
	status   int           // 0 on a transport error
	respHash uint64        // response body fingerprint
}

func (o *opResult) failed() bool { return o.status < 200 || o.status >= 300 }

// bodyStore keeps one copy of every distinct response body that the
// correctness check will need, keyed by its fingerprint.
type bodyStore struct {
	seed   maphash.Seed
	mu     sync.Mutex
	bodies map[uint64][]byte
}

func newBodyStore() *bodyStore {
	return &bodyStore{seed: maphash.MakeSeed(), bodies: map[uint64][]byte{}}
}

func (bs *bodyStore) keep(b []byte) uint64 {
	h := maphash.Bytes(bs.seed, b)
	bs.mu.Lock()
	if _, ok := bs.bodies[h]; !ok {
		bs.bodies[h] = b
	}
	bs.mu.Unlock()
	return h
}

func (bs *bodyStore) get(h uint64) []byte {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.bodies[h]
}

// connTrace returns ctx carrying an httptrace hook that stores the
// time spent waiting for a pooled connection into *wait.
func connTrace(ctx context.Context, wait *time.Duration) context.Context {
	var asked time.Time
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) { asked = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { *wait = time.Since(asked) },
	})
}

// driveOpen fires evs on their schedule regardless of completions (an
// open loop), timing every request from its due time. keep selects the
// events whose response bodies are stored for the correctness check;
// traced turns the connection-wait hook on. It also returns the
// process CPU time at the start of each of the windows equal slices of
// span, and at the end.
func driveOpen(ctx context.Context, c *client.Client, evs []event, span time.Duration, windows int, keep func(i int) bool, store *bodyStore, traced bool) ([]opResult, []time.Duration) {
	res := make([]opResult, len(evs))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	marks := []time.Duration{cpuTime()}
	start := time.Now()
	for i := range evs {
		for len(marks) < windows && evs[i].at >= span*time.Duration(len(marks))/time.Duration(windows) {
			marks = append(marks, cpuTime())
		}
		due := start.Add(evs[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			ev := &evs[i]
			o := &res[i]
			o.kind = kindIndex(ev.kind)
			issued := time.Now()
			o.lag = issued.Sub(due)
			rctx := ctx
			if traced {
				rctx = connTrace(ctx, &o.connWait)
			}
			resp, err := c.PostKind(rctx, ev.kind, ev.body)
			o.latency = time.Since(due)
			if err != nil {
				logf("%s event %d: %v", ev.kind, i, err)
				return
			}
			o.status = resp.Status
			if o.failed() {
				logf("%s event %d: %v", ev.kind, i, resp.Err())
			}
			if keep(i) {
				o.respHash = store.keep(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for len(marks) <= windows {
		marks = append(marks, cpuTime())
	}
	return res, marks
}

// jobResult is one campaign job of the closed loop.
type jobResult struct {
	regime  int
	simSeed int64
	latency time.Duration // submit → final document
	doc     []byte        // the final document; nil when the job failed
}

// jobsRun is the outcome of the closed-loop job phase.
type jobsRun struct {
	jobs  []jobResult
	http  []opResult // every submit and poll exchange
	fails int
}

// driveJobs runs the campaign-jobs closed loop for d: one client
// submits a job, polls it every jobPoll until the final document
// arrives, then submits the next. The job in flight at the deadline
// is finished; none is started after it.
func driveJobs(ctx context.Context, c *client.Client, seed int64, instances [][]byte, d time.Duration, traced bool) (*jobsRun, error) {
	run := &jobsRun{}
	start := time.Now()
	exchange := func(due time.Time, do func(ctx context.Context) (*client.Response, error)) (*client.Response, error) {
		o := opResult{kind: kindJobs}
		issued := time.Now()
		o.lag = max(issued.Sub(due), 0)
		rctx := ctx
		if traced {
			rctx = connTrace(ctx, &o.connWait)
		}
		resp, err := do(rctx)
		o.latency = time.Since(issued) + o.lag
		if err == nil {
			o.status = resp.Status
		}
		run.http = append(run.http, o)
		return resp, err
	}
	for j := 0; time.Since(start) < d; j++ {
		regime, simSeed, body, err := jobBody(seed, instances, j)
		if err != nil {
			return nil, err
		}
		jr := jobResult{regime: regime, simSeed: simSeed}
		submitted := time.Now()
		resp, err := exchange(submitted, func(ctx context.Context) (*client.Response, error) {
			return c.Post(ctx, "/v1/jobs", body)
		})
		var id string
		if err == nil && resp.Status == http.StatusAccepted {
			var ack struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(resp.Body, &ack) == nil {
				id = ack.ID
			}
		}
		for next := submitted.Add(jobPoll); id != ""; next = next.Add(jobPoll) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now()
			}
			resp, err = exchange(next, func(ctx context.Context) (*client.Response, error) {
				return c.JobStatus(ctx, id)
			})
			if err != nil || resp.Status != http.StatusAccepted {
				break
			}
		}
		jr.latency = time.Since(submitted)
		if err == nil && resp.Status == http.StatusOK {
			jr.doc = resp.Body
		} else {
			run.fails++
			if err == nil {
				err = fmt.Errorf("status %d: %w", resp.Status, resp.Err())
			}
			logf("job %d: %v", j, err)
		}
		run.jobs = append(run.jobs, jr)
	}
	return run, nil
}
