package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"energysched/internal/loadgen"
)

// phase is one timed run of a workload and everything measured about
// it.
type phase struct {
	w          workload
	seed       int64
	evs        []event
	ops        []opResult // open-loop requests, or the job loop's exchanges
	keep       func(i int) bool
	store      *bodyStore
	jobs       *jobsRun
	instances  [][]byte
	routed     bool
	wall       time.Duration
	before     usage
	after      usage
	stats      counters
	spans      *spanLog
	mismatches int
	// Open-loop runs only: the scheduled span, how many windows it is
	// cut into, and the process CPU time at each window boundary (see
	// windowLen).
	span     time.Duration
	windows  int
	cpuMarks []time.Duration
}

// An open-loop run is cut by due time into equal windows of about
// windowLen. Latency quantiles are exact within each window, and the run
// reports the median window, so a burst of noise from outside the
// benchmark moves the few windows it falls in, not the result. Windows
// are widened until each holds about minWindowOps requests: a window's
// p95 over a couple of hundred requests rests on a handful of samples,
// and on cold-single the median of such windows spread three times as
// wide over seeds as the whole run's p95.
const (
	windowLen    = 2 * time.Second
	minWindowOps = 800
)

// windowCount is how many windows cover span when it holds ops
// requests.
func windowCount(span time.Duration, ops int) int {
	return max(1, min(int((span+windowLen/2)/windowLen), ops/minWindowOps))
}

// measure runs the timed phase on a stood-up workload.
func measure(ctx context.Context, w workload, rc runConfig, e *env, traced bool) (*phase, error) {
	ph := &phase{w: w, seed: rc.seed, evs: e.evs, store: newBodyStore(), instances: e.instances, routed: e.st.router != nil}
	c0, err := e.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	runtime.GC()
	ph.before = readUsage()
	t0 := time.Now()
	if e.evs != nil {
		ph.keep = w.sample(rc.seed)
		ph.span = time.Duration(rc.seconds * float64(time.Second))
		ph.windows = windowCount(ph.span, len(e.evs))
		ph.ops, ph.cpuMarks = driveOpen(ctx, e.c, e.evs, ph.span, ph.windows, ph.keep, ph.store, traced)
	} else {
		d := time.Duration(rc.seconds * float64(time.Second))
		if ph.jobs, err = driveJobs(ctx, e.c, rc.seed, e.instances, d, traced); err != nil {
			return nil, err
		}
		ph.ops = ph.jobs.http
	}
	ph.wall = time.Since(t0)
	ph.after = readUsage()
	c1, err := e.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	ph.stats = c1.sub(c0)
	return ph, nil
}

// verify checks the phase's outputs against the oracle, outside the
// timed phase, and records attempted/failed/correct. A mismatched
// request is marked failed, so it also counts as +∞ latency.
func (ph *phase) verify(rc runConfig, rep *report) {
	o := newOracle()
	t0 := time.Now()
	checked := 0
	fail := func(what string, err error) {
		ph.mismatches++
		if ph.mismatches <= 5 {
			logf("MISMATCH %s: %v", what, err)
		}
	}
	if ph.jobs == nil {
		seed := maphash.MakeSeed()
		seen := map[[2]uint64]error{}
		for i := range ph.ops {
			op := &ph.ops[i]
			if op.failed() || !ph.keep(i) {
				continue
			}
			k := [2]uint64{maphash.Bytes(seed, ph.evs[i].body), op.respHash}
			err, done := seen[k]
			if !done {
				err = o.checkResponse(ph.evs[i].kind, ph.evs[i].body, ph.store.get(op.respHash))
				seen[k] = err
				checked++
			}
			if err != nil {
				op.status = -1
				fail(fmt.Sprintf("%s event %d", ph.evs[i].kind, i), err)
			}
		}
		rep.attempted = len(ph.ops)
		for i := range ph.ops {
			if ph.ops[i].failed() {
				rep.failed++
			}
		}
	} else {
		for j := range ph.jobs.jobs {
			jr := &ph.jobs.jobs[j]
			if jr.doc == nil {
				continue
			}
			checked++
			if err := o.checkJob(ph.instances[jr.regime], jobRegimes[jr.regime].trials, jr.simSeed, jr.doc); err != nil {
				jr.doc = nil
				ph.jobs.fails++
				fail(fmt.Sprintf("job %d", j), err)
			}
		}
		rep.attempted = len(ph.jobs.jobs)
		rep.failed = ph.jobs.fails
	}
	rep.correct = ph.mismatches == 0
	rep.textf("check: %d distinct responses verified against direct core.Solve / sim campaigns in %.2fs, %d mismatches",
		checked, time.Since(t0).Seconds(), ph.mismatches)
}

// latencies returns the per-op latency distribution in ms (failed ops
// at +∞) and the number of completed ops. On campaign-jobs an op is a
// job, timed from submit to its final document.
func (ph *phase) latencies() (all dist, perKind [numKinds]dist, completed int) {
	if ph.jobs != nil {
		for _, j := range ph.jobs.jobs {
			v := math.Inf(1)
			if j.doc != nil {
				v = float64(j.latency) / float64(time.Millisecond)
				completed++
			}
			all.add(v)
			perKind[j.regime].add(v)
		}
		return all, perKind, completed
	}
	for _, op := range ph.ops {
		v := math.Inf(1)
		if !op.failed() {
			v = float64(op.latency) / float64(time.Millisecond)
			completed++
		}
		all.add(v)
		perKind[op.kind].add(v)
	}
	return all, perKind, completed
}

// endToEndMetrics prints the -trace 0 metrics; those BENCHMARK.json
// declares go into the result line, the workload-specific ones are
// printed only.
func (ph *phase) endToEndMetrics(rep *report, setupS float64, setups int) {
	all, perKind, completed := ph.latencies()
	cpu := float64(ph.after.cpu-ph.before.cpu) / float64(time.Millisecond) / float64(max(completed, 1))
	p50, p95, p99 := all.q(0.50), all.q(0.95), all.q(0.99)
	if ph.jobs == nil {
		var m []float64
		m, cpu = ph.windowed([]float64{0.5, 0.95, 0.99})
		p50, p95, p99 = m[0], m[1], m[2]
		rep.textf("open-loop metrics are the median of %d windows; whole-run p50 %.4f ms, p95 %.4f ms, p99 %.4f ms",
			ph.windows, all.q(0.5), all.q(0.95), all.q(0.99))
	}
	rep.textf("end-to-end metrics (%s, %d ops in %.2fs, stream %s)", ph.w.name, len(all.vals), ph.wall.Seconds(), ph.digest())
	rep.metric("setup_s", setupS, "s", setups, true)
	rep.metric("latency_p50_ms", p50, "ms", all.n(), true)
	rep.metric("latency_p95_ms", p95, "ms", all.n(), true)
	rep.metric("cpu_ms_per_op", cpu, "ms", completed, true)
	rep.metric("peak_rss_mb", float64(ph.after.rssKB)/1024, "MB", 0, true)
	// The p99 is printed, not gated: on a shared 2-vCPU host it reads
	// the host's scheduling stalls more than the program (see README).
	rep.metric("latency_p99_ms", p99, "ms", all.n(), false)
	rep.metric("failed_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", rep.attempted, false)
	if ph.jobs == nil {
		for _, k := range []int{kindSolve, kindBatch, kindSimulate} {
			rep.metric(kindNames[k]+"_p50_ms", perKind[k].q(0.5), "ms", perKind[k].n(), false)
		}
		rep.metric("offered_per_s", float64(len(ph.evs))/ph.evs[len(ph.evs)-1].at.Seconds(), "1/s", len(ph.evs), false)
		return
	}
	trials := 0
	for _, j := range ph.jobs.jobs {
		if j.doc != nil {
			trials += jobRegimes[j.regime].trials
		}
	}
	rep.metric("trials_per_s", float64(trials)/ph.wall.Seconds(), "trials/s", completed, false)
	for r, rg := range jobRegimes {
		d := perKind[r]
		rep.metric(rg.name+"_job_p50_s", d.q(0.5)/1000, "s", d.n(), false)
	}
	var polls dist
	for _, op := range ph.ops {
		polls.addDur(op.latency, time.Millisecond)
	}
	rep.metric("exchange_p50_ms", polls.q(0.5), "ms", polls.n(), false)
	for r, rg := range jobRegimes {
		var ms []string
		for _, v := range perKind[r].vals {
			ms = append(ms, fmt.Sprintf("%.0f", v))
		}
		rep.textf("  %s jobs, ms (sorted): %s", rg.name, strings.Join(ms, " "))
	}
}

// windowed cuts an open-loop phase into windows by due time and
// returns, for each quantile in qs, the median over windows of that
// latency quantile (failed requests at +∞), and the median over windows
// of the CPU time per completed request. Each window's figures go to
// standard error.
func (ph *phase) windowed(qs []float64) (meds []float64, cpuPerOp float64) {
	lat := make([]dist, ph.windows)
	done := make([]int, ph.windows)
	for i, op := range ph.ops {
		w := min(int(int64(ph.evs[i].at)*int64(ph.windows)/int64(ph.span)), ph.windows-1)
		v := math.Inf(1)
		if !op.failed() {
			v = float64(op.latency) / float64(time.Millisecond)
			done[w]++
		}
		lat[w].add(v)
	}
	for _, q := range qs {
		var vs []float64
		for w := range lat {
			vs = append(vs, lat[w].q(q))
		}
		logf("window p%g: %.3g", 100*q, vs)
		meds = append(meds, median(vs))
	}
	var cpus []float64
	for w := range lat {
		cpu := ph.cpuMarks[w+1] - ph.cpuMarks[w]
		cpus = append(cpus, float64(cpu)/float64(time.Millisecond)/float64(max(done[w], 1)))
	}
	logf("window cpu ms per op: %.3g", cpus)
	return meds, median(cpus)
}

// digest fingerprints the request stream the phase sent.
func (ph *phase) digest() string {
	if ph.evs != nil {
		return streamDigest(ph.evs)
	}
	var evs []event
	for j := range ph.jobs.jobs {
		_, _, body, err := jobBody(ph.seed, ph.instances, j)
		if err != nil {
			return "error"
		}
		evs = append(evs, event{kind: "jobs", body: body})
	}
	return streamDigest(evs)
}

// replayLayers replays the traced phase's requests through each
// layer's public functions (see layerPass), then probes the simulator
// and checkpoint layers at the campaign-jobs regimes.
func (ph *phase) replayLayers(rc runConfig, e *env) (*layerPass, error) {
	lp := newLayerPass()
	switch {
	case ph.jobs != nil:
		rp, err := newReplayer(lp, false)
		if err != nil {
			return nil, err
		}
		for j := range ph.jobs.jobs {
			_, _, body, err := jobBody(ph.seed, ph.instances, j)
			if err != nil {
				return nil, err
			}
			if err := rp.replayJobSubmit(body, j < 8); err != nil {
				return nil, err
			}
		}
	case ph.routed:
		// Hot path: fill the replay cache with every distinct request,
		// solves first so simulate requests find their solve cached as
		// on the server, then replay the timed stream's head as hits.
		rp, err := newReplayer(lp, true)
		if err != nil {
			return nil, err
		}
		order := make([]int, len(ph.evs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return ph.evs[order[a]].kind == loadgen.KindSolve && ph.evs[order[b]].kind != loadgen.KindSolve
		})
		seen := map[string]bool{}
		for _, i := range order {
			ev := ph.evs[i]
			if k := ev.kind + string(ev.body); !seen[k] {
				seen[k] = true
				if err := rp.replay(ev.kind, ev.body); err != nil {
					return nil, err
				}
			}
		}
		// Keep the fill's miss-path timings (solves, marshalling, the
		// simulator); the hit-path ones restart with the timed stream.
		*lp = layerPass{solveBy: lp.solveBy, solve: lp.solve, solveAll: lp.solveAll,
			marshal: lp.marshal, unmarshalResult: lp.unmarshalResult, simSetup: lp.simSetup,
			campaign: lp.campaign, cachePut: lp.cachePut}
		for i := 0; i < len(ph.evs) && i < 4000; i++ {
			if err := rp.replay(ph.evs[i].kind, ph.evs[i].body); err != nil {
				return nil, err
			}
		}
	default:
		// Miss path on every fifth request, as the server computed it.
		rp, err := newReplayer(lp, false)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(ph.evs); i += 5 {
			if err := rp.replay(ph.evs[i].kind, ph.evs[i].body); err != nil {
				return nil, err
			}
		}
	}
	instances := ph.instances
	if instances == nil {
		var err error
		if instances, err = jobInstances(rc.seed); err != nil {
			return nil, err
		}
	}
	return lp, lp.simProbe(instances, e.probeDir(rc))
}

// perLayerMetrics prints the -trace 1 metrics. The result line carries
// the per-layer metrics BENCHMARK.json declares — those every workload
// measures; the ones that exist only on some workloads (router self
// time, hit and miss handler time) are printed only.
func (ph *phase) perLayerMetrics(rep *report, lp *layerPass, base *phase) {
	sp := ph.spans
	ops := len(ph.ops)
	var lag, wait dist
	var latSum, lagSum, waitSum time.Duration
	for _, op := range ph.ops {
		lag.addDur(op.lag, time.Millisecond)
		wait.addDur(op.connWait, time.Millisecond)
		latSum += op.latency
		lagSum += op.lag
		waitSum += op.connWait
	}
	front := layerServer
	if ph.routed {
		front = layerRouter
	}
	frontN, frontSum := sp.total(front, nil, -1)
	backN, backSum := sp.total(layerServer, nil, -1)

	// Replayed layer time per op, weighting each kind's mean by how
	// often the phase sent it. Job polls do no replayed layer work.
	var kindOps [numKinds]int
	for _, op := range ph.ops {
		kindOps[op.kind]++
	}
	if ph.jobs != nil {
		kindOps[kindJobs] = len(ph.jobs.jobs)
	}
	pass := 0.0
	for k := range kindOps {
		if kindOps[k] > 0 && lp.perOp[k].n() > 0 {
			pass += float64(kindOps[k]) * lp.perOp[k].mean()
		}
	}
	bd := newBreakdown(ops, latSum, lagSum, waitSum, frontSum, backSum, pass/float64(ops))

	rep.textf("per-layer metrics (%s, traced, %d ops, %d front and %d backend handler spans)", ph.w.name, ops, frontN, backN)
	rep.metric("loadgen.lag_p99_ms", lag.q(0.99), "ms", lag.n(), true)
	rep.metric("client.conn_wait_p99_ms", wait.q(0.99), "ms", wait.n(), true)
	rep.metric("client.transport_ms", bd.Transport, "ms", ops, true)
	rep.metric("server.handler_ms", bd.Server, "ms", backN, true)
	if ph.routed {
		rep.metric("router.self_ms", bd.RouterSelf, "ms", frontN, false)
		rn, rs := sp.total(layerRouter, []int{kindBatch}, -1)
		_, bs := sp.total(layerServer, []int{kindBatch}, -1)
		rep.metric("router.batch_self_ms", msPer(rs-bs, rn), "ms", rn, false)
		hn, hs := sp.total(layerServer, nil, 1)
		rep.metric("server.hit_ms", msPer(hs, hn), "ms", hn, false)
	} else {
		for _, k := range []int{kindSolve, kindBatch, kindSimulate} {
			n, s := sp.total(layerServer, []int{k}, 0)
			if n == 0 {
				continue
			}
			rep.metric("server.miss_ms."+kindNames[k], msPer(s, n), "ms", n, false)
			if lp.perOp[k].n() > 0 {
				rep.metric("server.unattributed_ms."+kindNames[k], msPer(s, n)-lp.perOp[k].mean(), "ms", lp.perOp[k].n(), false)
			}
		}
	}
	rep.metric("server.unattributed_ms", bd.Unattributed, "ms", ops, false)
	legs := 0.0 // no router: no legs
	if ph.routed && frontN > 0 {
		legs = float64(backN) / float64(frontN)
	}
	rep.metric("router.legs_per_op", legs, "count", frontN, true)
	rep.metric("router.hedges_fired", float64(ph.stats.hedges), "count", 0, true)
	rep.metric("router.failovers", float64(ph.stats.failovers), "count", 0, true)
	rep.metric("server.coalesced", float64(ph.stats.coalesced), "count", 0, true)
	rep.metric("server.shed", float64(ph.stats.shed), "count", 0, true)
	lookups := ph.stats.hits + ph.stats.misses
	rep.metric("cache.hit_ratio", float64(ph.stats.hits)/float64(max(lookups, 1)), "ratio", int(lookups), true)
	rep.metric("cache.evictions_per_op", float64(ph.stats.evictions)/float64(ops), "count", ops, true)
	rep.metric("cache.get_us", lp.cacheGet.mean(), "us", lp.cacheGet.n(), true)
	rep.metric("cache.put_us", lp.cachePut.mean(), "us", lp.cachePut.n(), true)
	rep.metric("core.decode_us", lp.decode.mean(), "us", lp.decode.n(), true)
	rep.metric("core.key_us", lp.key.mean(), "us", lp.key.n(), true)
	rep.metric("core.envelope_us", lp.envelope.mean(), "us", lp.envelope.n(), false)
	rep.metric("core.solve_ms", lp.solve.mean(), "ms", lp.solve.n(), true)
	names := make([]string, 0, len(lp.solveBy))
	for n := range lp.solveBy {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := lp.solveBy[n]
		rep.metric("core.solve_ms."+n, d.mean(), "ms", d.n(), false)
		rep.metric("core.solve_p99_ms."+n, d.q(0.99), "ms", d.n(), false)
	}
	if lp.solveAll.n() > 0 {
		rep.metric("core.solveall_ms", lp.solveAll.mean(), "ms", lp.solveAll.n(), false)
	}
	rep.metric("core.marshal_us", lp.marshal.mean(), "us", lp.marshal.n(), true)
	rep.metric("core.unmarshal_result_us", lp.unmarshalResult.mean(), "us", lp.unmarshalResult.n(), true)
	rep.metric("sim.setup_us", lp.simSetup.mean(), "us", lp.simSetup.n(), true)
	rep.metric("sim.campaign_ms", lp.campaign.mean(), "ms", lp.campaign.n(), true)
	rep.metric("sim.fast_trials_per_s", lp.fastTrialsPerS, "trials/s", 0, true)
	rep.metric("sim.heap_trials_per_s", lp.heapTrialsPerS, "trials/s", 0, true)
	rep.metric("sim.fastpath_ratio", lp.fastpathRatio, "ratio", 0, true)
	rep.metric("sim.merge_share", lp.mergeShare, "ratio", 0, true)
	rep.metric("jobs.checkpoint_ms", lp.checkpoint.mean(), "ms", lp.checkpoint.n(), true)
	perJob := 0.0
	if ph.jobs != nil {
		perJob = float64(ph.stats.checkpoints) / float64(max(len(ph.jobs.jobs), 1))
	}
	rep.metric("jobs.checkpoints_per_job", perJob, "count", 0, true)
	done := max(ops, 1)
	if ph.jobs != nil {
		done = max(len(ph.jobs.jobs), 1)
	}
	rep.metric("go.alloc_kb_per_op", float64(ph.after.alloc-ph.before.alloc)/1024/float64(done), "KB", done, true)
	rep.metric("go.mallocs_per_op", float64(ph.after.mallocs-ph.before.mallocs)/float64(done), "count", done, true)
	rep.metric("go.gc_per_kop", float64(ph.after.gcs-ph.before.gcs)*1000/float64(done), "count", done, true)
	rep.metric("bench.trace_overhead_pct", traceOverhead(base, ph), "%", 0, true)

	rep.textf("reconciliation (mean per op, ms): latency %.4f = lag %.4f + conn_wait %.4f + transport %.4f + router.self %.4f + server layer pass %.4f + server.unattributed %.4f (sum %.4f; unattributed share %.1f%%)",
		bd.Latency, bd.Lag, bd.ConnWait, bd.Transport, bd.RouterSelf, bd.LayerPass, bd.Unattributed, bd.sum(),
		100*bd.Unattributed/bd.Latency)
}

// traceOverhead compares the traced phase with the untraced one of the
// same seed: latency p50 on the open-loop workloads, trial throughput
// on campaign-jobs. Positive means the traced run was slower.
func traceOverhead(base, traced *phase) float64 {
	if traced.jobs != nil {
		return 100 * (trialRate(base) - trialRate(traced)) / trialRate(base)
	}
	b, _, _ := base.latencies()
	t, _, _ := traced.latencies()
	return 100 * (t.q(0.5) - b.q(0.5)) / b.q(0.5)
}

func trialRate(ph *phase) float64 {
	trials := 0
	for _, j := range ph.jobs.jobs {
		if j.doc != nil {
			trials += jobRegimes[j.regime].trials
		}
	}
	return float64(trials) / ph.wall.Seconds()
}

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(d) / float64(time.Millisecond) / float64(n)
}
