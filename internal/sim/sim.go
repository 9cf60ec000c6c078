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
// An execution attempt becomes ready when every predecessor in the
// mapping's constraint graph (DAG precedence ∪ same-processor order)
// has completed, and starts at the later of that instant and its
// scheduled start time — so every finish time follows from its
// predecessors' finish times alone, and the engine runs a trial as
// one pass over a precomputed topological order of that graph (see
// Runner.runFlat), not as an event queue. It still reports what a
// queue with the total deterministic order (time, task, attempt,
// kind) would: energies are summed in finish-key order, and recorded
// traces list their start/fault/finish events in the queue's pop
// order. Faults are drawn per attempt from
// counter-split splitmix64 streams (internal/rng), one stream per
// (seed, trial) pair, so campaigns are reproducible and
// embarrassingly parallel. Recovery after a failed first attempt is
// pluggable: re-execute at the same speed (in the schedule's
// re-execution slot when the solver provisioned one), re-execute at
// fmax, or abort the run.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"unsafe"

	"energysched/internal/core"
	"energysched/internal/model"
	"energysched/internal/rng"
	"energysched/internal/schedule"
)

// NoFastPathEnv is the environment variable that forces every trial
// through the full trial kernel, process-wide — the escape hatch the
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
	// DisableFastPath forces every trial through the full kernel even
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

// Runner is a prepared simulation: instance and schedule cross-checked
// once, constraint graph built and ordered once, per-attempt durations,
// energies, occurrence thresholds — and the fault-free outcome —
// precomputed once. Run then executes individual trials
// allocation-free, so campaigns amortize all setup, and trials whose
// occurrence draws admit no fault short-circuit to the precomputed
// outcome without running the kernel. A trial writes only its own
// trialScratch block, never a Runner field, so campaign workers share
// one Runner; a Runner is still not safe for concurrent use (Run and
// campaigns share its scratch).
type Runner struct {
	in   *core.Instance
	s    *schedule.Schedule
	rel  *model.Reliability
	opts Options

	// steps lists the tasks in a topological order of the constraint
	// graph (DAG precedence ∪ same-processor order), the order the
	// kernel settles them in; preds holds their constraint-graph
	// predecessors, those of steps[k] at preds[steps[k].lo:steps[k].hi].
	steps  []step
	preds  []int32
	first  []attempt
	second []attempt // dur == 0 → no second attempt possible
	hasSec []bool
	// energy[2i+k] is the energy of attempt k of task i, indexed like
	// the finish keys the energy sum visits.
	energy []float64
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
	// under the runner's options, precomputed by one kernel run in
	// NewRunner; it is what the fast path emits, and ffSlot is its
	// campaign slot.
	ff     Outcome
	ffSlot trialSlot
	// noFast forces the kernel for every trial (Options or env).
	noFast bool

	// scr holds one trial scratch block per campaign worker; Run uses
	// scr[0]. Campaigns grow it to their worker count.
	scr []trialScratch
	// camp is the reusable campaign state (trial slots, outcome
	// histograms, worker pool), built lazily by the first campaign.
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
	order, err := cg.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		in:     in,
		s:      s,
		rel:    in.Rel,
		opts:   opts,
		first:  make([]attempt, n),
		second: make([]attempt, n),
		hasSec: make([]bool, n),
		energy: make([]float64, 2*n),
		thr:    make([]uint64, 2*n),
		scr:    newTrialScratch(1, n),
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
		r.energy[2*i] = r.first[i].energy
		r.energy[2*i+1] = r.second[i].energy
	}
	m := 0
	for i := 0; i < n; i++ {
		m += len(cg.Preds(i))
	}
	r.steps, r.preds = make([]step, n), make([]int32, 0, m)
	for k, i := range order {
		a, b := &r.first[i], &r.second[i]
		r.steps[k] = step{start0: a.start, dur0: a.dur, start1: b.start, dur1: b.dur,
			task: int32(i), sec: r.hasSec[i], lo: int32(len(r.preds))}
		for _, p := range cg.Preds(i) {
			r.preds = append(r.preds, int32(p))
		}
		r.steps[k].hi = int32(len(r.preds))
	}
	r.noFast = opts.DisableFastPath || os.Getenv(NoFastPathEnv) != ""
	// Precompute the fault-free outcome by one kernel run while the
	// thresholds are still zero: no draw can fault, so this single run
	// is the exact outcome of every trial whose occurrence draws admit
	// no fault.
	r.ff = r.runFlat(&r.scr[0], nil)
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

// step is one task of the kernel's pass, with what the pass reads
// about it packed together.
type step struct {
	start0, dur0 float64 // first attempt: scheduled start and duration
	start1, dur1 float64 // second attempt; start1 < 0 runs it right after the failure
	task         int32
	lo, hi       int32 // constraint-graph predecessors: preds[lo:hi]
	sec          bool  // a second attempt exists
}

// trialScratch is the mutable state of one trial in flight — all a
// trial writes. newTrialScratch lays each block out so that no two
// blocks, and nothing else, write bytes in the same 64-byte cache
// line: campaign workers running side by side never contend for one.
// The struct itself holds only slice headers, fixed at construction.
type trialScratch struct {
	x    []uint64    // the trial's raw draws, laid out like thr
	rel  []float64   // per task: the instant it released its successors (+Inf: never)
	keys []finishKey // executed attempts' finish keys, kept sorted
	// served[0] counts trials the fast path answered since the campaign
	// last reset it; the campaign sums the blocks into its profile. It
	// is the word after x in the same block.
	served []uint64
}

// finishKey places an executed attempt in the order the trial sums
// energies: by finish time, then task, then attempt. id is
// 2·task + attempt, so (t, id) orders as (time, task, attempt).
type finishKey struct {
	t  float64
	id int32
}

// cacheLine is the granule newTrialScratch isolates blocks at.
const cacheLine = 64

// lineSlab allocates k blocks of n elements of T in one slab, each
// block rounded up to whole 64-byte lines and preceded and followed by
// a full line of padding, so bytes written through one block never
// share a line with another block or with any other allocation —
// whatever the slab's own alignment. lineBlock returns block w.
func lineSlab[T any](k, n int) []T {
	return make([]T, lineStride[T](0)+k*lineStride[T](n))
}

func lineBlock[T any](slab []T, w, n int) []T {
	lo := lineStride[T](0) + w*lineStride[T](n)
	return slab[lo : lo+n : lo+n]
}

// lineStride is the slab stride of an n-element block: n rounded up
// to whole lines, plus one line of padding.
func lineStride[T any](n int) int {
	var zero T
	per := cacheLine / int(unsafe.Sizeof(zero))
	return (n+per-1)/per*per + per
}

// newTrialScratch returns k scratch blocks for n-task trials.
func newTrialScratch(k, n int) []trialScratch {
	xs, rels, keys := lineSlab[uint64](k, 2*n+1), lineSlab[float64](k, n), lineSlab[finishKey](k, 2*n)
	scr := make([]trialScratch, k)
	for w := range scr {
		x := lineBlock(xs, w, 2*n+1)
		scr[w] = trialScratch{
			x:      x[: 2*n : 2*n],
			rel:    lineBlock(rels, w, n),
			keys:   lineBlock(keys, w, 2*n),
			served: x[2*n:],
		}
	}
	return scr
}

// Run executes one trial and fills tr (reusing its Events buffer).
// An unrecorded call performs no allocations.
//
// Fast path: the per-attempt fault *occurrence* decision factors out
// of the fault *location* computation (the same draw both decides the
// occurrence and, via inverse-CDF over the segment hazard, locates the
// instant — see faultOffset), so a trial can be classified by drawing
// only the occurrence draws. fastTrial compares each raw draw against
// its attempt's integer threshold as it is drawn, in the same task
// order the kernel uses, and stores nothing; when none admits a fault
// the trial is the deterministic fault-free execution and Run emits
// the precomputed Outcome without running the kernel. Each trial owns
// its counter-split stream rng.At(Seed, trial), so stopping early is
// unobservable — no later consumer shares the stream — and a faulty
// trial simply restarts the stream to fill its draws for the kernel.
// The emitted outcome is bit-identical to the kernel's (equivalence-
// and golden-tested across seeds, policies and workload classes).
func (r *Runner) Run(trial int, tr *Trace) {
	s := &r.scr[0]
	tr.Events = tr.Events[:0]
	if r.fastTrial(s, trial) {
		tr.Outcome = r.ff
		return
	}
	r.draw(s, trial)
	if !r.opts.Record {
		tr.Outcome = r.runFlat(s, nil)
		return
	}
	log := make([]logEntry, 0, 6*len(r.first))
	tr.Outcome = r.runFlat(s, &log)
	slices.SortFunc(log, compareLog)
	for _, e := range log {
		tr.Events = append(tr.Events, e.ev)
	}
}

// fastTrial reports whether the fast path serves trial: it must be
// enabled, and no occurrence draw in fastThr may admit a fault. A
// served trial is counted in s.served.
func (r *Runner) fastTrial(s *trialScratch, trial int) bool {
	if r.noFast || r.opts.Record {
		return false
	}
	stream := rng.At(r.opts.Seed, trial)
	for _, t := range r.fastThr {
		if stream.Uint64()>>11 < t {
			return false
		}
	}
	s.served[0]++
	return true
}

// draw fills s.x with trial's draws, made up front in task order — two
// per task, used or not — so the outcome depends only on (seed, trial),
// never on the order the kernel settles tasks in. Without fault
// injection every threshold is zero and the draws decide nothing.
func (r *Runner) draw(s *trialScratch, trial int) {
	stream := rng.At(r.opts.Seed, trial)
	for i := range s.x {
		s.x[i] = stream.Uint64()
	}
}

// runFlat is the trial kernel: one pass over the constraint graph in
// topological order, its draws already in s.x. Each task starts its
// first attempt at the later of its scheduled start and the instant
// its last constraint-graph predecessor released it; a failed first
// attempt — or any first attempt, in worst-case replay — is followed
// by the second at the later of the failure and the second's scheduled
// start. A task releases its successors when its last attempt ends;
// in live execution a task whose attempts all failed never does
// (release instant +Inf), which prunes everything downstream, while
// worst-case replay releases regardless and only the success statistic
// records the failure.
//
// The energy is summed over the executed attempts in finish-key order
// (time, task, attempt): each key is insertion-sorted into s.keys as
// the attempt settles. That is the order an event queue popping those
// finishes would visit them in, because every attempt ends strictly
// after the instant that made it ready. A non-nil log receives the
// recorded events (see logEntry).
func (r *Runner) runFlat(s *trialScratch, log *[]logEntry) Outcome {
	n := len(r.steps)
	wc := r.opts.WorstCase
	x, thr, rel := s.x, r.thr, s.rel
	out := Outcome{Succeeded: true}
	keys := s.keys[:0]
	for k := range r.steps {
		st := &r.steps[k]
		i := int(st.task)
		start := st.start0
		for _, p := range r.preds[st.lo:st.hi] {
			if t := rel[p]; t > start {
				start = t
			}
		}
		if start == inf {
			rel[i] = inf
			continue
		}
		if log != nil {
			r.logAttempt(s, log, st, 0, start)
		}
		end := start + st.dur0
		failed := x[i]>>11 < thr[i]
		keys = insertKey(keys, finishKey{t: end, id: int32(2 * i)})
		if end > out.Makespan {
			out.Makespan = end
		}
		ok := !failed
		if failed {
			out.Faults++
		}
		if st.sec && (wc || failed) {
			start = end
			if st.start1 >= 0 && st.start1 > start {
				start = st.start1
			}
			out.Reexecutions++
			if log != nil {
				r.logAttempt(s, log, st, 1, start)
			}
			end = start + st.dur1
			failed = x[n+i]>>11 < thr[n+i]
			keys = insertKey(keys, finishKey{t: end, id: int32(2*i + 1)})
			if end > out.Makespan {
				out.Makespan = end
			}
			if failed {
				out.Faults++
			} else {
				ok = true
			}
		}
		if !ok {
			out.Succeeded = false
			if !wc {
				end = inf
			}
		}
		rel[i] = end
	}
	for _, k := range keys {
		out.Energy += r.energy[k.id]
	}
	d := r.in.Deadline
	out.DeadlineMet = out.Succeeded && out.Makespan <= d+schedule.TimeEps*math.Max(1, d)
	return out
}

var inf = math.Inf(1)

// insertKey adds k to the sorted keys, which have room for it.
func insertKey(keys []finishKey, k finishKey) []finishKey {
	keys = append(keys, k)
	m := len(keys) - 1
	for ; m > 0 && (k.t < keys[m-1].t || k.t == keys[m-1].t && k.id < keys[m-1].id); m-- {
		keys[m] = keys[m-1]
	}
	keys[m] = k
	return keys
}

// logEntry is one recorded event and its place in the log. The log
// keeps the order of an event queue keyed (time, task, attempt, kind)
// in which each attempt's Start is queued when the attempt becomes
// ready and its Fault and Finish when it starts: key order, except
// that a Start queued at the instant of the Finish that released it
// pops right after that Finish even when its own key sorts below it,
// and so does a Fault it logs at that same instant. own is the
// event's key rank (2·task+attempt)·3+kind; at is 2·own, or 2·(the
// releasing Finish's rank)+1 for such a raised event, so ordering by
// (time, at, own) reproduces the queue.
type logEntry struct {
	ev      Event
	at, own uint64
}

func compareLog(a, b logEntry) int {
	if c := cmp.Compare(a.ev.Time, b.ev.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.own, b.own)
}

// logAttempt records the Start, the Fault if one strikes, and the
// Finish of attempt k of st's task, which starts at start.
func (r *Runner) logAttempt(s *trialScratch, log *[]logEntry, st *step, k int, start float64) {
	n, i := len(r.first), int(st.task)
	att := &r.first[i]
	if k == 1 {
		att = &r.second[i]
	}
	own := uint64(2*i+k) * 3
	// The releasing Finish of a first attempt is the latest-keyed
	// release among its predecessors; a Start at that very instant
	// with a lower task index is raised behind it.
	raise := uint64(0)
	if k == 0 {
		relT, rel := math.Inf(-1), -1
		for _, p32 := range r.preds[st.lo:st.hi] {
			p := int(p32)
			id := 2 * p
			if r.hasSec[p] && (r.opts.WorstCase || s.x[p]>>11 < r.thr[p]) {
				id++
			}
			if t := s.rel[p]; t > relT || t == relT && id > rel {
				relT, rel = t, id
			}
		}
		if relT == start && i < rel/2 {
			raise = 2*(uint64(rel)*3+2) + 1
		}
	}
	at := func(own uint64, t float64) uint64 {
		if raise != 0 && t == start {
			return raise
		}
		return 2 * own
	}
	ev := Event{Time: start, Kind: EventStart.String(), Task: i, Attempt: k, Proc: r.s.Mapping.Proc[i], Speed: att.speed}
	*log = append(*log, logEntry{ev: ev, at: at(own, start), own: own})
	j := k*n + i
	failed := s.x[j]>>11 < r.thr[j]
	if failed {
		u := float64(s.x[j]>>11) / (1 << 53)
		ev.Time, ev.Kind = start+faultOffset(att, u, *r.rel), EventFault.String()
		*log = append(*log, logEntry{ev: ev, at: at(own+1, ev.Time), own: own + 1})
	}
	ev.Time, ev.Kind, ev.Failed = start+att.dur, EventFinish.String(), failed
	*log = append(*log, logEntry{ev: ev, at: 2 * (own + 2), own: own + 2})
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
