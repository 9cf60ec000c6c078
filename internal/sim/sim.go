// Package sim is a deterministic, seeded discrete-event simulator
// that closes the predict/observe loop of the repository: it takes a
// problem instance plus a solved schedule (speeds, start times,
// processor mapping from any registered solver) and *executes* it on
// a simulated multi-processor platform, injecting transient faults
// from the very rate model the solvers optimize against. Where the
// solvers only ever predict energy, makespan and reliability, sim
// observes them — per run as a structured Trace (time-ordered
// start/fault/finish events plus an Outcome), and per campaign as
// Monte-Carlo outcome distributions (campaign.go) whose success rate
// must match the closed-form reliability and whose fault-free
// replays must reproduce the solver's own numbers exactly.
//
// The engine is a classic event-queue simulation: a binary heap of
// (time, task, attempt, kind) events with a total deterministic
// order; an execution attempt becomes ready when every predecessor in
// the mapping's constraint graph (DAG precedence ∪ same-processor
// order) has completed, and starts at the later of that instant and
// its scheduled start time. Faults are drawn per attempt from
// counter-split splitmix64 streams (internal/rng), one stream per
// (seed, trial) pair, so campaigns are reproducible and
// embarrassingly parallel. Recovery after a failed first attempt is
// pluggable: re-execute at the same speed (in the schedule's
// re-execution slot when the solver provisioned one), re-execute at
// fmax, or abort the run.
package sim

import (
	"errors"
	"fmt"
	"math"
	"os"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/rng"
	"energysched/internal/schedule"
)

// NoFastPathEnv is the environment variable that forces every trial
// through the event heap, process-wide — the escape hatch the
// equivalence tests and forensic reruns use to compare the fast path
// against ground truth. Any non-empty value disables the fast path
// for Runners created after the variable is set.
const NoFastPathEnv = "ENERGYSCHED_SIM_NO_FASTPATH"

// Policy selects the recovery action after a failed execution
// attempt. Whatever the policy, a task is attempted at most twice —
// the paper's re-execution model.
type Policy int

const (
	// PolicySameSpeed re-executes a failed task at the speeds of the
	// schedule's second execution when the solver provisioned one
	// (starting no earlier than its scheduled slot), and otherwise
	// repeats the first execution's segments immediately.
	PolicySameSpeed Policy = iota
	// PolicyMaxSpeed re-executes a failed task at fmax immediately
	// after the failure is detected.
	PolicyMaxSpeed
	// PolicyAbort gives up on the run at the first failure.
	PolicyAbort
)

func (p Policy) String() string {
	switch p {
	case PolicySameSpeed:
		return "same-speed"
	case PolicyMaxSpeed:
		return "max-speed"
	case PolicyAbort:
		return "abort"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy is the inverse of Policy.String, for flag and request
// parsing.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "same-speed", "":
		return PolicySameSpeed, nil
	case "max-speed":
		return PolicyMaxSpeed, nil
	case "abort":
		return PolicyAbort, nil
	default:
		return 0, fmt.Errorf("sim: unknown policy %q (have same-speed, max-speed, abort)", s)
	}
}

// EventKind enumerates the trace event types.
type EventKind int

const (
	// EventStart marks the begin of an execution attempt.
	EventStart EventKind = iota
	// EventFault marks a transient fault striking a running attempt
	// (the attempt still runs to completion — fault detection is at
	// the end, as in the paper's checkpoint-free model).
	EventFault
	// EventFinish marks the end of an attempt; Failed tells whether a
	// fault invalidated it.
	EventFinish
)

func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventFault:
		return "fault"
	case EventFinish:
		return "finish"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a run's time-ordered log.
type Event struct {
	Time    float64 `json:"time"`
	Kind    string  `json:"kind"`
	Task    int     `json:"task"`
	Attempt int     `json:"attempt"`
	Proc    int     `json:"proc"`
	// Speed is the speed of the attempt's first segment (the whole
	// attempt under non-VDD models).
	Speed float64 `json:"speed"`
	// Failed is set on finish events of attempts hit by a fault.
	Failed bool `json:"failed,omitempty"`
}

// Outcome condenses one simulated run.
type Outcome struct {
	// Energy is the energy actually consumed: Σ f³·t over every
	// segment of every attempt that ran (failed attempts included —
	// fault detection is at the end of the attempt).
	Energy float64 `json:"energy"`
	// Makespan is the finish time of the last attempt that ran.
	Makespan float64 `json:"makespan"`
	// Succeeded reports whether every task ultimately succeeded.
	Succeeded bool `json:"succeeded"`
	// DeadlineMet reports whether the run both succeeded and finished
	// within the instance deadline (validator tolerance).
	DeadlineMet bool `json:"deadlineMet"`
	// Reexecutions counts second attempts that ran.
	Reexecutions int `json:"reexecutions"`
	// Faults counts attempts invalidated by a transient fault.
	Faults int `json:"faults"`
}

// Trace is the structured record of one simulated run. Events is only
// populated when the run was asked to record (Options.Record); the
// Outcome is always filled.
type Trace struct {
	Events  []Event `json:"events,omitempty"`
	Outcome Outcome `json:"outcome"`
}

// Options tunes one simulated run.
type Options struct {
	// Policy is the recovery policy (default PolicySameSpeed).
	Policy Policy
	// Seed and Trial address the fault stream: rng.At(Seed, Trial).
	Seed  int64
	Trial int
	// WorstCase replays the schedule exactly as the solver accounted
	// it: every scheduled execution runs, including re-executions whose
	// first attempt succeeded (the paper charges both "even when the
	// first execution is successful"). Recovery policies do not apply,
	// and failures only affect the success statistic — successors run
	// regardless, so every trial's energy and makespan equal the
	// schedule's predicted values and only Succeeded varies with the
	// fault draws.
	WorstCase bool
	// DisableFaults turns the injector off — the run becomes the
	// deterministic fault-free execution of the schedule.
	DisableFaults bool
	// Record fills Trace.Events with the time-ordered event log.
	Record bool
	// DisableFastPath forces every trial through the event heap even
	// when the occurrence draws admit the precomputed fault-free
	// outcome. The fast path is bit-identical by construction (and
	// equivalence-tested); this switch exists for benchmarks comparing
	// the two paths and for the equivalence tests themselves. The
	// NoFastPathEnv environment variable forces the same, process-wide.
	DisableFastPath bool
}

// attempt is one precomputed execution attempt: scheduled start (< 0
// when the attempt chains immediately after its predecessor attempt),
// duration, energy, failure probability and segments.
type attempt struct {
	start  float64
	dur    float64
	energy float64
	p      float64
	speed  float64
	segs   []schedule.Segment
}

// occurrenceThreshold converts a failure probability into the integer
// threshold thr with x>>11 < thr ⟺ float64(x>>11)/2⁵³ < p for every
// 64-bit draw x. The left side is an integer k < 2⁵³ and k/2⁵³ is
// exact, as is p·2⁵³ (a power-of-two scaling), so k/2⁵³ < p ⟺
// k < p·2⁵³ ⟺ k < ⌈p·2⁵³⌉. p ≥ 1 faults on every draw (2⁵³); p ≤ 0
// and NaN never fault (0).
func occurrenceThreshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	default:
		return 0
	}
}

// event is a heap entry. Kind breaks exact time ties after task and
// attempt, giving the queue a total deterministic order; the fields
// pack into 16 bytes.
type event struct {
	time    float64
	task    int32
	attempt int8
	kind    uint8 // an EventKind
	failed  bool
}

func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.task != b.task {
		return a.task < b.task
	}
	if a.attempt != b.attempt {
		return a.attempt < b.attempt
	}
	return a.kind < b.kind
}

// Runner is a prepared simulation: instance and schedule cross-checked
// once, constraint graph built once, per-attempt durations, energies,
// occurrence thresholds — and the fault-free outcome — precomputed
// once. Run then executes individual trials allocation-free, so
// campaigns amortize all setup, and trials whose occurrence draws
// admit no fault short-circuit to the precomputed outcome without
// touching the event heap. A Runner is not safe for concurrent use;
// campaigns give each worker its own Clone.
type Runner struct {
	in   *core.Instance
	s    *schedule.Schedule
	rel  *model.Reliability
	opts Options

	cg     *dag.Graph
	indeg0 []int32 // constraint-graph indegree template
	first  []attempt
	second []attempt // dur == 0 → no second attempt possible
	hasSec []bool
	// thr holds the occurrence thresholds of the first attempts, then
	// of the second attempts (occurrenceThreshold of each p; all zero
	// when faults are not injected, and zero for absent second
	// attempts): attempt k of task i faults iff x[k·n+i]>>11 < thr[k·n+i].
	thr []uint64
	// fastThr is the prefix of thr the fast path must clear: the first
	// attempts, plus the always-running second attempts in worst-case
	// replay; empty when faults are not injected.
	fastThr []uint64

	// ff is the outcome of the deterministic fault-free execution
	// under the runner's options, precomputed by one event-heap run in
	// NewRunner; it is what the fast path emits, and ffSlot is its
	// campaign slot.
	ff     Outcome
	ffSlot trialSlot
	// noFast forces the event heap for every trial (Options or env).
	noFast bool
	// fastServed counts trials this runner answered from the fast path
	// since the campaign last reset it — each worker counts its own,
	// the campaign sums them into its profile.
	fastServed int64

	// per-trial scratch
	indeg []int32
	done  []bool   // task completed all its attempts successfully
	x     []uint64 // the trial's raw draws, laid out like thr
	heap  []event

	// camp is the reusable campaign state (worker runners, trial
	// slots, outcome histograms), built lazily by the first campaign.
	camp *campaignScratch
}

// NewRunner validates the pairing and precomputes the trial-invariant
// tables. The schedule must belong to the instance (same graph and
// mapping object shapes); it is not re-validated against the
// constraints — pass solver output, which core.Solve already
// validated.
func NewRunner(in *core.Instance, s *schedule.Schedule, opts Options) (*Runner, error) {
	if in == nil || s == nil {
		return nil, errors.New("sim: nil instance or schedule")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.Graph.N()
	if s.G == nil || s.G.N() != n || len(s.Tasks) != n {
		return nil, fmt.Errorf("sim: schedule has %d tasks, instance has %d", len(s.Tasks), n)
	}
	if s.Mapping == nil || len(s.Mapping.Proc) != n {
		return nil, errors.New("sim: schedule mapping does not cover the instance")
	}
	cg, err := in.Mapping.ConstraintGraph(in.Graph)
	if err != nil {
		return nil, err
	}
	if _, err := cg.TopoOrder(); err != nil {
		return nil, err
	}
	r := &Runner{
		in:     in,
		s:      s,
		rel:    in.Rel,
		opts:   opts,
		cg:     cg,
		indeg0: make([]int32, n),
		first:  make([]attempt, n),
		second: make([]attempt, n),
		hasSec: make([]bool, n),
		thr:    make([]uint64, 2*n),
		indeg:  make([]int32, n),
		done:   make([]bool, n),
		x:      make([]uint64, 2*n),
		heap:   make([]event, 0, 4*n),
	}
	for i := 0; i < n; i++ {
		for range cg.Preds(i) {
			r.indeg0[i]++
		}
	}
	for i := 0; i < n; i++ {
		ts := s.Tasks[i]
		if len(ts.Execs) < 1 || len(ts.Execs) > 2 {
			return nil, fmt.Errorf("sim: task %d has %d executions", i, len(ts.Execs))
		}
		r.first[i] = makeAttempt(ts.Execs[0], in.Rel)
		switch {
		case opts.WorstCase:
			// Replay mode: exactly the scheduled executions run.
			if ts.ReExecuted() {
				r.second[i] = makeAttempt(ts.Execs[1], in.Rel)
				r.hasSec[i] = true
			}
		case opts.Policy == PolicyAbort:
			// No recovery, even when the solver provisioned a slot.
		case opts.Policy == PolicyMaxSpeed:
			w := in.Graph.Weight(i)
			a := makeAttempt(schedule.Constant(0, w, in.Speed.FMax), in.Rel)
			a.start = -1
			r.second[i] = a
			r.hasSec[i] = true
		case ts.ReExecuted():
			// Same-speed recovery in the solver's provisioned slot.
			r.second[i] = makeAttempt(ts.Execs[1], in.Rel)
			r.hasSec[i] = true
		default:
			// Same-speed recovery without a slot: repeat the first
			// attempt immediately after the failure is detected.
			a := r.first[i]
			a.start = -1
			r.second[i] = a
			r.hasSec[i] = true
		}
	}
	r.noFast = opts.DisableFastPath || os.Getenv(NoFastPathEnv) != ""
	// Precompute the fault-free outcome by one event-heap run while the
	// thresholds are still zero: the fault-free trace is fully
	// deterministic (no stream is consumed), so this single run is the
	// exact outcome of every trial whose occurrence draws admit no
	// fault.
	record := r.opts.Record
	r.opts.Record = false
	var ff Trace
	r.runHeap(&ff)
	r.opts.Record = record
	r.ff = ff.Outcome
	r.ffSlot = newTrialSlot(&r.ff)
	if in.Rel != nil && !opts.DisableFaults {
		for i := 0; i < n; i++ {
			r.thr[i] = occurrenceThreshold(r.first[i].p)
			if r.hasSec[i] {
				r.thr[n+i] = occurrenceThreshold(r.second[i].p)
			}
		}
		r.fastThr = r.thr[:n]
		if opts.WorstCase {
			r.fastThr = r.thr
		}
	}
	return r, nil
}

// Clone returns a Runner that shares every immutable trial-invariant
// table with r — instance, schedule, constraint graph, per-attempt
// tables, precomputed fault-free outcome — and owns fresh per-trial
// scratch. Cloning costs four O(n) slice allocations instead of the
// constraint-graph reconstruction and validation NewRunner pays,
// which is what makes campaign worker pools cheap. The clone starts
// from the same Options; like its source, it is not safe for
// concurrent use, but distinct clones may run concurrently.
func (r *Runner) Clone() *Runner {
	c := new(Runner)
	*c = *r
	n := len(r.first)
	c.indeg = make([]int32, n)
	c.done = make([]bool, n)
	c.x = make([]uint64, 2*n)
	c.heap = make([]event, 0, cap(r.heap))
	c.camp = nil
	return c
}

func makeAttempt(ex schedule.Execution, rel *model.Reliability) attempt {
	a := attempt{start: ex.Start, dur: ex.Duration(), energy: ex.Energy(), segs: ex.Segments}
	if len(ex.Segments) > 0 {
		a.speed = ex.Segments[0].Speed
	}
	if rel != nil {
		a.p = ex.FailureProb(*rel)
	}
	return a
}

// Run executes one trial and fills tr (reusing its Events buffer).
// With a warmed Runner and Trace the call performs no steady-state
// allocations beyond heap growth on first use.
//
// Fast path: the per-attempt fault *occurrence* decision factors out
// of the fault *location* computation (the same draw both decides the
// occurrence and, via inverse-CDF over the segment hazard, locates the
// instant — see faultOffset), so a trial can be classified by drawing
// only the occurrence draws. fastTrial compares each raw draw against
// its attempt's integer threshold as it is drawn, in the same task
// order the event-heap path uses, and stores nothing; when none admits
// a fault the trial is the deterministic fault-free execution and Run
// emits the precomputed Outcome without touching the heap. Each trial
// owns its counter-split stream rng.At(Seed, trial), so stopping early
// is unobservable — no later consumer shares the stream — and a faulty
// trial simply restarts the stream to fill its draws for the heap. The
// emitted outcome is bit-identical to the event-heap run (equivalence-
// and golden-tested across seeds, policies and workload classes).
func (r *Runner) Run(trial int, tr *Trace) {
	if r.fastTrial(trial) {
		tr.Events = tr.Events[:0]
		tr.Outcome = r.ff
		return
	}
	r.heapTrial(trial, tr)
}

// fastTrial reports whether the fast path serves trial: it must be
// enabled, and no occurrence draw in fastThr may admit a fault. A
// served trial is counted in fastServed.
func (r *Runner) fastTrial(trial int) bool {
	if r.noFast || r.opts.Record {
		return false
	}
	stream := rng.At(r.opts.Seed, trial)
	for _, t := range r.fastThr {
		if stream.Uint64()>>11 < t {
			return false
		}
	}
	r.fastServed++
	return true
}

// heapTrial runs trial on the event heap. The draws are made up front
// in task order — two per task, used or not — so the outcome depends
// only on (seed, trial), never on event interleaving. Without fault
// injection every threshold is zero and the draws decide nothing.
func (r *Runner) heapTrial(trial int, tr *Trace) {
	stream := rng.At(r.opts.Seed, trial)
	for i := range r.x {
		r.x[i] = stream.Uint64()
	}
	r.runHeap(tr)
}

// runHeap is the event-heap execution of one trial; the draws x must
// already be filled for this trial. An unrecorded run enqueues each
// attempt as its Finish event, with the failure already decided from
// its draw (see enqueue); a recorded run enqueues a Start event that
// decides the failure, logs the fault instant and then enqueues the
// Finish. Either way the Finish events pop in the same key order, so
// energies, releases and outcomes agree.
func (r *Runner) runHeap(tr *Trace) {
	n := len(r.first)
	opts := r.opts
	copy(r.indeg, r.indeg0)
	for i := range r.done {
		r.done[i] = false
	}
	tr.Events = tr.Events[:0]
	out := Outcome{Succeeded: true}
	r.heap = r.heap[:0]
	for i := 0; i < n; i++ {
		if r.indeg0[i] == 0 {
			r.enqueue(i, 0, r.first[i].start)
		}
	}
	for len(r.heap) > 0 {
		ev := r.pop()
		i := int(ev.task)
		att := &r.first[i]
		if ev.attempt == 1 {
			att = &r.second[i]
		}
		switch EventKind(ev.kind) {
		case EventStart:
			k := int(ev.attempt)*n + i
			failed := r.x[k]>>11 < r.thr[k]
			if failed {
				u := float64(r.x[k]>>11) / (1 << 53)
				r.push(event{time: ev.time + faultOffset(att, u, *r.rel), task: ev.task, attempt: ev.attempt, kind: uint8(EventFault)})
			}
			tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventStart.String(),
				Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed})
			r.push(event{time: ev.time + att.dur, task: ev.task, attempt: ev.attempt, kind: uint8(EventFinish), failed: failed})
		case EventFault:
			tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventFault.String(),
				Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed})
		case EventFinish:
			out.Energy += att.energy
			if ev.time > out.Makespan {
				out.Makespan = ev.time
			}
			if ev.failed {
				out.Faults++
			}
			if opts.Record {
				tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventFinish.String(),
					Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed, Failed: ev.failed})
			}
			switch {
			case ev.attempt == 0 && opts.WorstCase && r.hasSec[i]:
				// Worst-case replay: the provisioned re-execution always
				// runs; the task fails only if both attempts do.
				if !ev.failed {
					r.done[i] = true // success already banked
				}
				r.startAttempt(i, 1, ev.time, &out)
			case ev.attempt == 0 && ev.failed && !opts.WorstCase && r.hasSec[i]:
				out.Reexecutions++
				r.startAttempt(i, 1, ev.time, &out)
			case ev.failed && !r.done[i]:
				// Final attempt failed (or abort policy): the task — and
				// with it the run — fails. Live execution prunes the
				// failed task's successors; worst-case replay keeps
				// executing the full schedule and only the success
				// statistic records the failure.
				out.Succeeded = false
				if opts.WorstCase {
					r.release(i, ev.time)
				}
			default:
				r.done[i] = true
				r.release(i, ev.time)
			}
		}
	}
	d := r.in.Deadline
	out.DeadlineMet = out.Succeeded && out.Makespan <= d+schedule.TimeEps*math.Max(1, d)
	tr.Outcome = out
}

// enqueue makes attempt k of task i ready to start at time t. A
// recorded run pushes its Start event; an unrecorded run skips the
// Start round trip and pushes the Finish event directly, its failure
// decided from the trial's draw. The Finish key (start+dur, task,
// attempt) is the same either way, and every event popped before a
// Start has a smaller key than that Start's Finish, so the Finish
// events pop in the same order in both modes.
func (r *Runner) enqueue(i, k int, t float64) {
	if r.opts.Record {
		r.push(event{time: t, task: int32(i), attempt: int8(k), kind: uint8(EventStart)})
		return
	}
	att := &r.first[i]
	if k == 1 {
		att = &r.second[i]
	}
	j := k*len(r.first) + i
	r.push(event{time: t + att.dur, task: int32(i), attempt: int8(k), kind: uint8(EventFinish), failed: r.x[j]>>11 < r.thr[j]})
}

// startAttempt enqueues the start of attempt k of task i after the
// previous attempt finished at time now. In worst-case replay the
// success bookkeeping of attempt 1 is resolved at its finish via done.
func (r *Runner) startAttempt(i, k int, now float64, out *Outcome) {
	att := &r.second[i]
	start := now
	if att.start >= 0 && att.start > start {
		start = att.start
	}
	if r.opts.WorstCase {
		out.Reexecutions++
	}
	r.enqueue(i, k, start)
}

// release marks task i complete at time now and makes its
// constraint-graph successors ready; a successor with all predecessors
// done starts at the later of now and its scheduled start.
func (r *Runner) release(i int, now float64) {
	for _, v := range r.cg.Succs(i) {
		r.indeg[v]--
		if r.indeg[v] == 0 {
			start := r.first[v].start
			if now > start {
				start = now
			}
			r.enqueue(v, 0, start)
		}
	}
}

// faultOffset locates the fault instant within the attempt for the
// trace. Under the repository's linearized rate model the fault
// probability is P(fault in [0,t]) = Λ(t) = Σ λ(f_s)·d_s itself (not
// 1−e^−Λ — see model.Reliability.FailureProb), so the
// per-attempt uniform u that decided the fault (u < p, u uniform)
// doubles as the exact inverse-CDF sample: the fault lands where the
// running Λ crosses u. Only recorded traces locate faults, so only
// they convert a draw back to the float u = (x>>11)/2⁵³.
func faultOffset(att *attempt, u float64, rel model.Reliability) float64 {
	h := 0.0
	t := 0.0
	for _, seg := range att.segs {
		rate := rel.FaultRate(seg.Speed)
		dh := rate * seg.Duration
		if h+dh >= u && rate > 0 {
			return t + (u-h)/rate
		}
		h += dh
		t += seg.Duration
	}
	return att.dur
}

func (r *Runner) push(ev event) {
	r.heap = append(r.heap, ev)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(r.heap[i], r.heap[parent]) {
			break
		}
		r.heap[i], r.heap[parent] = r.heap[parent], r.heap[i]
		i = parent
	}
}

func (r *Runner) pop() event {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < last && eventLess(r.heap[l], r.heap[small]) {
			small = l
		}
		if rr < last && eventLess(r.heap[rr], r.heap[small]) {
			small = rr
		}
		if small == i {
			break
		}
		r.heap[i], r.heap[small] = r.heap[small], r.heap[i]
		i = small
	}
	return top
}

// Prediction is what the schedule promises before any trial runs; the
// campaign report pairs it with the observed distribution.
type Prediction struct {
	// Energy is the schedule's worst-case energy (every scheduled
	// execution charged, as the solvers account it).
	Energy float64 `json:"energy"`
	// ExpectedEnergy is the analytic expectation of the observed
	// energy under the runner's policy: Σ e₁ + p₁·e₂ per task (equal
	// to Energy in worst-case replay). It assumes every task runs —
	// exact up to the (second-order) probability that an earlier
	// abort prunes downstream tasks.
	ExpectedEnergy float64 `json:"expectedEnergy"`
	// Makespan is the schedule's makespan.
	Makespan float64 `json:"makespan"`
	// Reliability is the closed-form schedule success probability
	// Π (1 − p₁·p₂) over re-executed tasks × Π (1 − p₁) over the rest,
	// with p₂ taken from the runner's resolved recovery attempt.
	Reliability float64 `json:"reliability"`
}

// Predict returns the closed-form prediction for the runner's
// instance, schedule and policy.
func (r *Runner) Predict() Prediction {
	p := Prediction{Energy: r.s.Energy(), Makespan: r.s.Makespan(), Reliability: 1}
	injecting := r.rel != nil && !r.opts.DisableFaults
	for i := range r.first {
		e1, p1 := r.first[i].energy, r.first[i].p
		if !injecting {
			p1 = 0
		}
		switch {
		case r.opts.WorstCase && r.hasSec[i]:
			p.ExpectedEnergy += e1 + r.second[i].energy
			p.Reliability *= 1 - p1*r.second[i].p
		case r.hasSec[i]:
			p.ExpectedEnergy += e1 + p1*r.second[i].energy
			p.Reliability *= 1 - p1*r.second[i].p
		default:
			p.ExpectedEnergy += e1
			p.Reliability *= 1 - p1
		}
	}
	if !injecting {
		p.Reliability = 1
	}
	return p
}

// Simulate runs a single trial of the schedule on a fresh Runner and
// returns its trace. Campaigns should use RunCampaign, which amortizes
// the setup across trials and workers.
func Simulate(in *core.Instance, s *schedule.Schedule, opts Options) (*Trace, error) {
	r, err := NewRunner(in, s, opts)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	r.Run(opts.Trial, tr)
	return tr, nil
}
