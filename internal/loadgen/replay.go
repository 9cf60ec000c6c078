package loadgen

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"energysched/internal/client"
	"energysched/internal/hist"
	"energysched/internal/obs"
)

// ReplayOptions tune one replay run.
type ReplayOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" or an
	// httptest.Server.URL. Required.
	BaseURL string
	// Client issues the requests [client.New with Timeout and no
	// retries]. A replay client must not retry sheds: the harness
	// counts 429s, it doesn't hide them.
	Client *client.Client
	// Timeout bounds each request [30s]; only used when Client is nil.
	Timeout time.Duration
	// Speed scales replay time: 2 fires the trace twice as fast, 0.5
	// half as fast [1].
	Speed float64
	// ScrapeStats snapshots GET /stats before and after the run and
	// reports the deltas.
	ScrapeStats bool
	// OnResult, when set, is called once per issued event with the
	// event's trace index and its outcome — resp is nil exactly when err
	// is non-nil. Calls arrive from the firing goroutines, concurrently
	// and in completion order, so the hook must be safe for concurrent
	// use. The chaos harness uses it to collect per-event response
	// bodies for byte-equivalence checks against a fault-free run.
	OnResult func(i int, ev *Event, resp *client.Response, err error)
	// Slowest, when positive, reports each kind's N slowest completed
	// requests, carrying the server-echoed X-Request-Id and — when the
	// server's trace ring still holds the trace after the run — its
	// per-stage span breakdown scraped from GET /debug/traces.
	Slowest int
}

// KindReport aggregates one request kind's outcomes. Latency covers
// every completed request (whatever its status); Max is exact while
// the quantiles are conservative bucket upper edges.
type KindReport struct {
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`       // 2xx
	Shed     int64   `json:"shed"`     // 429 admission rejections
	Rejected int64   `json:"rejected"` // other 4xx
	Errors   int64   `json:"errors"`   // 5xx and transport failures
	MeanMs   float64 `json:"meanMs"`
	P50Ms    float64 `json:"p50Ms"`
	P99Ms    float64 `json:"p99Ms"`
	MaxMs    float64 `json:"maxMs"`
}

// StatsDelta is the server-side movement over the run, from /stats
// scraped before and after: cache traffic, admission-control activity
// and semaphore queueing as the server saw them.
type StatsDelta struct {
	// CacheHits counts the backends' cache hits plus, behind an
	// energyrouter, the repeats its response cache answered before any
	// backend cache saw them.
	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"` // hits/(hits+misses) over the run
	Solved       int64   `json:"solved"`
	Simulated    int64   `json:"simulated"`
	Swept        int64   `json:"swept"`
	Coalesced    int64   `json:"coalesced"`
	Shed         int64   `json:"shed"`
	Timeouts     int64   `json:"timeouts"`
	// Gauges: absolute values at the two scrape points, not deltas — a
	// drained server ends where it started, so the interesting signal
	// is the residual depth.
	QueuedBefore   int64 `json:"queuedBefore"`
	QueuedAfter    int64 `json:"queuedAfter"`
	InFlightBefore int64 `json:"inFlightBefore"`
	InFlightAfter  int64 `json:"inFlightAfter"`
}

// Report is the replay outcome energyload emits as JSON.
type Report struct {
	Events         int                    `json:"events"`
	TraceDurationS float64                `json:"traceDurationS"`
	WallS          float64                `json:"wallS"`
	Speed          float64                `json:"speed"`
	OfferedPerSec  float64                `json:"offeredPerSec"`  // trace events / scaled duration
	AchievedPerSec float64                `json:"achievedPerSec"` // completed requests / wall time
	Requests       int64                  `json:"requests"`
	OK             int64                  `json:"ok"`
	Shed           int64                  `json:"shed"`
	Rejected       int64                  `json:"rejected"`
	Errors         int64                  `json:"errors"`
	PerKind        map[string]*KindReport `json:"perKind"`
	Stats          *StatsDelta            `json:"statsDelta,omitempty"`
	// Slowest lists each kind's worst completed requests (ReplayOptions.
	// Slowest per kind), slowest first within a kind.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// SlowRequest is one of a kind's slowest completed requests: where the
// time went, joined by request ID to the server's trace ring when the
// trace is still held there.
type SlowRequest struct {
	Kind string `json:"kind"`
	// TraceIndex is the event's index in the replayed trace — enough to
	// re-issue the exact request body.
	TraceIndex int     `json:"traceIndex"`
	DurMs      float64 `json:"durMs"`
	Status     int     `json:"status"`
	// RequestID is the server-echoed X-Request-Id; empty when the
	// server ran with tracing disabled.
	RequestID string `json:"requestId,omitempty"`
	// Spans is the server-side stage breakdown from GET /debug/traces;
	// absent when the ring has already recycled the trace.
	Spans []obs.Span `json:"spans,omitempty"`
}

// slowTracker keeps each kind's n slowest completed requests, sorted
// slowest first.
type slowTracker struct {
	n  int
	mu sync.Mutex
	m  map[string][]SlowRequest
}

func newSlowTracker(n int) *slowTracker {
	return &slowTracker{n: n, m: map[string][]SlowRequest{}}
}

// record offers one completed request; it is kept only while it ranks
// among the kind's n slowest.
func (st *slowTracker) record(r SlowRequest) {
	st.mu.Lock()
	defer st.mu.Unlock()
	list := st.m[r.Kind]
	i := sort.Search(len(list), func(i int) bool { return list[i].DurMs < r.DurMs })
	if i >= st.n {
		return
	}
	list = append(list, SlowRequest{})
	copy(list[i+1:], list[i:])
	list[i] = r
	if len(list) > st.n {
		list = list[:st.n]
	}
	st.m[r.Kind] = list
}

// report flattens the tracker (kinds in presentation order, slowest
// first within a kind) and joins the server's trace ring: one
// /debug/traces scrape, then each kept request picks up its span
// breakdown by request ID.
func (st *slowTracker) report(ctx context.Context, cl *client.Client) []SlowRequest {
	spans := map[string][]obs.Span{}
	var ring struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := cl.GetJSON(ctx, "/debug/traces?limit=0", &ring); err == nil {
		for _, rec := range ring.Traces {
			spans[rec.ID] = rec.Spans
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []SlowRequest
	for _, k := range Kinds() {
		for _, r := range st.m[k] {
			if r.RequestID != "" {
				r.Spans = spans[r.RequestID]
			}
			out = append(out, r)
		}
	}
	return out
}

// kindTracker accumulates one kind's counters during the run.
type kindTracker struct {
	requests atomic.Int64
	ok       atomic.Int64
	shed     atomic.Int64
	rejected atomic.Int64
	errors   atomic.Int64
	latency  *hist.Atomic
}

// Replay fires the trace open-loop against opts.BaseURL: every event
// is issued at its scheduled (speed-scaled) offset whether or not
// earlier requests have returned — the generator, not the server,
// owns the arrival process, which is what makes saturation visible
// instead of self-throttling around it. Replay returns once every
// issued request has completed. A context cancellation stops issuing
// new events and reports what completed.
func Replay(ctx context.Context, tr *Trace, opts ReplayOptions) (*Report, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: replay needs a BaseURL")
	}
	if opts.Speed <= 0 {
		opts.Speed = 1
	}
	cl := opts.Client
	if cl == nil {
		var err error
		cl, err = client.New(client.Config{BaseURL: opts.BaseURL, Timeout: opts.Timeout})
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
	}

	trackers := map[string]*kindTracker{}
	for _, k := range Kinds() {
		trackers[k] = &kindTracker{latency: hist.NewAtomic(hist.LatencyBounds())}
	}
	var slow *slowTracker
	if opts.Slowest > 0 {
		slow = newSlowTracker(opts.Slowest)
	}

	var before scrapedStats
	if opts.ScrapeStats {
		if err := cl.GetJSON(ctx, "/stats", &before); err != nil {
			return nil, fmt.Errorf("loadgen: scraping /stats before replay: %w", err)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
issue:
	for i := range tr.Events {
		ev := &tr.Events[i]
		due := start.Add(time.Duration(float64(ev.AtUs)/opts.Speed) * time.Microsecond)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break issue
			}
		}
		wg.Add(1)
		go func(i int, ev *Event) {
			defer wg.Done()
			resp, dur, err := fire(ctx, cl, ev, trackers[ev.Kind])
			if slow != nil && err == nil {
				slow.record(SlowRequest{
					Kind:       ev.Kind,
					TraceIndex: i,
					DurMs:      float64(dur) / float64(time.Millisecond),
					Status:     resp.Status,
					RequestID:  resp.RequestID,
				})
			}
			if opts.OnResult != nil {
				opts.OnResult(i, ev, resp, err)
			}
		}(i, ev)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{
		Events:         len(tr.Events),
		TraceDurationS: tr.Duration().Seconds(),
		WallS:          wall.Seconds(),
		Speed:          opts.Speed,
		PerKind:        map[string]*KindReport{},
	}
	if d := tr.Duration().Seconds() / opts.Speed; d > 0 {
		rep.OfferedPerSec = float64(len(tr.Events)) / d
	}
	for _, k := range Kinds() {
		t := trackers[k]
		if t.requests.Load() == 0 {
			continue
		}
		count, sum, counts := t.latency.Snapshot()
		kr := &KindReport{
			Requests: t.requests.Load(),
			OK:       t.ok.Load(),
			Shed:     t.shed.Load(),
			Rejected: t.rejected.Load(),
			Errors:   t.errors.Load(),
			P50Ms:    hist.QuantileMs(t.latency.Bounds(), counts, count, 0.50),
			P99Ms:    hist.QuantileMs(t.latency.Bounds(), counts, count, 0.99),
			MaxMs:    float64(t.latency.Max()) / 1e6,
		}
		if count > 0 {
			kr.MeanMs = float64(sum) / float64(count) / 1e6
		}
		rep.PerKind[k] = kr
		rep.Requests += kr.Requests
		rep.OK += kr.OK
		rep.Shed += kr.Shed
		rep.Rejected += kr.Rejected
		rep.Errors += kr.Errors
	}
	if rep.WallS > 0 {
		rep.AchievedPerSec = float64(rep.Requests) / rep.WallS
	}
	if opts.ScrapeStats {
		var after scrapedStats
		if err := cl.GetJSON(ctx, "/stats", &after); err != nil {
			return nil, fmt.Errorf("loadgen: scraping /stats after replay: %w", err)
		}
		rep.Stats = statsDelta(&before, &after)
	}
	if slow != nil {
		rep.Slowest = slow.report(ctx, cl)
	}
	return rep, nil
}

// fire issues one event and buckets the outcome by the shared
// client-side classification (2xx ok, 429 shed, 4xx rejected, 5xx or
// transport failure error), returning the raw outcome for OnResult and
// the measured wall time for the slowest-request report.
func fire(ctx context.Context, cl *client.Client, ev *Event, t *kindTracker) (*client.Response, time.Duration, error) {
	t.requests.Add(1)
	begin := time.Now()
	resp, err := cl.PostKind(ctx, ev.Kind, ev.Body)
	if err != nil {
		t.errors.Add(1)
		return nil, 0, err
	}
	dur := time.Since(begin)
	t.latency.Observe(int64(dur))
	switch resp.Class() {
	case client.OK:
		t.ok.Add(1)
	case client.Shed:
		t.shed.Add(1)
	case client.Rejected:
		t.rejected.Add(1)
	default:
		t.errors.Add(1)
	}
	return resp, dur, nil
}

// scrapedStats is the /stats document a replay reads: the counters
// energyschedd and energyrouter share, plus the router's response-cache
// hits (zero on a single server).
type scrapedStats struct {
	client.Stats
	Router struct {
		CacheHits int64 `json:"cacheHits"`
	} `json:"router"`
}

func statsDelta(before, after *scrapedStats) *StatsDelta {
	d := &StatsDelta{
		CacheHits:      after.Cache.Hits - before.Cache.Hits + after.Router.CacheHits - before.Router.CacheHits,
		CacheMisses:    after.Cache.Misses - before.Cache.Misses,
		Solved:         after.Solved - before.Solved,
		Simulated:      after.Simulated - before.Simulated,
		Swept:          after.Swept - before.Swept,
		Coalesced:      after.Coalesced - before.Coalesced,
		Shed:           after.Shed - before.Shed,
		Timeouts:       after.Timeouts - before.Timeouts,
		QueuedBefore:   before.Queued,
		QueuedAfter:    after.Queued,
		InFlightBefore: before.InFlight,
		InFlightAfter:  after.InFlight,
	}
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		d.CacheHitRate = float64(d.CacheHits) / float64(lookups)
	}
	return d
}
