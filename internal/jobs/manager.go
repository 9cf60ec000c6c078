package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"energysched/internal/sim"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Progress is the callback the manager hands an Exec: the exec calls
// it after every merged chunk with the index of the next chunk and a
// fresh state snapshot (exactly sim.ChunkedOptions.OnChunk's shape).
// The manager uses it to track progress for polls, persist the
// checkpoint every few chunks, and pace chunk execution.
type Progress func(nextChunk int, st *sim.CampaignState) error

// Exec runs the compute of one job from its checkpoint: rebuild
// whatever the Request body describes, run the chunked campaign
// starting at cp.NextChunk from cp.State, report every chunk through
// progress, and return the finished result document. A non-nil error
// fails the job with the given HTTP-ish status (0 maps to 500) —
// except ctx.Err(), which the manager interprets as cancellation or
// drain, not failure.
type Exec func(ctx context.Context, cp *Checkpoint, progress Progress) (result json.RawMessage, status int, err error)

// Config tunes a Manager.
type Config struct {
	// Dir is the checkpoint directory; empty runs memory-only (jobs
	// work but do not survive a restart).
	Dir string
	// Exec executes one job's compute (required).
	Exec Exec
	// CheckpointEvery persists the checkpoint every this many chunks
	// (default 8). The final/failed checkpoint is always written.
	CheckpointEvery int
	// MaxConcurrent bounds how many jobs compute at once (default 2 —
	// campaigns are internally parallel already; this bounds memory,
	// not throughput).
	MaxConcurrent int
	// ChunkDelay, when positive, sleeps this long after every chunk —
	// a pacing knob for tests and smoke runs that need a job to stay
	// observable mid-flight long enough to kill it.
	ChunkDelay time.Duration
}

// Job is the manager's in-memory record of one campaign job. All
// mutable fields are guarded by the owning Manager's mu.
type Job struct {
	cp       *Checkpoint
	status   Status
	cancel   context.CancelFunc
	done     chan struct{}
	canceled bool // DELETE'd, as opposed to drained

	started     time.Time // when compute began (running and later)
	resumedFrom int       // trials inherited from the checkpoint at start
	trialsRun   int
	ciHalfWidth float64
	result      json.RawMessage
	errMsg      string
	errStatus   int
	lastPersist int // nextChunk at the last checkpoint write
	z           float64
	// onDisk marks a done job whose result lives only in its persisted
	// final checkpoint: a finished job keeps only its status in memory,
	// so the daemon's footprint does not grow with the jobs it has run.
	onDisk bool
}

// View is a read-only snapshot of a job for the HTTP layer.
type View struct {
	ID              string
	InstanceHash    string
	Status          Status
	TrialsRequested int
	TrialsRun       int
	ResumedTrials   int
	CIHalfWidth     float64
	TrialsPerSec    float64
	Result          json.RawMessage
	Error           string
	ErrorStatus     int
}

// Stats is the gauge/counter block jobs contribute to /stats and
// /metrics.
type Stats struct {
	Queued      int64 `json:"queued"`
	Running     int64 `json:"running"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Cancelled   int64 `json:"cancelled"`
	Submitted   int64 `json:"submitted"`
	Deduped     int64 `json:"deduped"`
	Resumed     int64 `json:"resumed"`
	Checkpoints int64 `json:"checkpoints"`
	Corrupt     int64 `json:"corrupt"`
	PersistErrs int64 `json:"persistErrors"`
	Panics      int64 `json:"panics"`
}

// Manager owns the job table: submission dedupe, bounded-concurrency
// execution, checkpoint persistence, startup resume and shutdown
// drain.
type Manager struct {
	cfg Config

	sem chan struct{} // concurrency gate, sized MaxConcurrent at New

	mu       sync.Mutex
	jobs     map[string]*Job
	draining bool

	cancelled   int64
	submitted   int64
	deduped     int64
	resumed     int64
	checkpoints int64
	corrupt     int64
	persistErrs int64
	panics      int64

	wg sync.WaitGroup
}

// New builds a Manager. If cfg.Dir is non-empty it is created; call
// Resume afterwards to reload its checkpoints.
func New(cfg Config) (*Manager, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("jobs: Config.Exec is required")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Manager{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		jobs: make(map[string]*Job),
	}, nil
}

// Submit registers a new job from a freshly built checkpoint
// (NextChunk 0, no state) and starts it. Submitting an ID that
// already exists — running or finished — returns the existing job
// with dedup=true instead of restarting the campaign: job IDs are
// content-derived, so identical submissions are the same job.
func (m *Manager) Submit(cp *Checkpoint) (v View, dedup bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return View{}, false, fmt.Errorf("jobs: manager is draining")
	}
	if j, ok := m.jobs[cp.ID]; ok {
		m.deduped++
		return m.viewLocked(j), true, nil
	}
	j, err := m.addLocked(cp, StatusQueued)
	if err != nil {
		return View{}, false, err
	}
	m.submitted++
	m.persistLocked(j)
	m.launchLocked(j)
	return m.viewLocked(j), false, nil
}

// addLocked validates and indexes a job record without starting it.
func (m *Manager) addLocked(cp *Checkpoint, st Status) (*Job, error) {
	z, err := sim.ZForConfidence(cp.Knobs.Confidence)
	if err != nil {
		return nil, err
	}
	j := &Job{cp: cp, status: st, done: make(chan struct{}), z: z, lastPersist: cp.NextChunk}
	if cp.State != nil {
		j.trialsRun = cp.State.TrialsRun
		j.resumedFrom = cp.State.TrialsRun
		j.ciHalfWidth = sim.WilsonHalfWidth(cp.State.Successes, cp.State.TrialsRun, z)
	}
	m.jobs[cp.ID] = j
	return j, nil
}

// Resume scans the state directory and reloads every checkpoint:
// finished jobs become poll-able results again, unfinished ones go
// straight back into execution from their last chunk boundary.
// Returns how many jobs were requeued.
func (m *Manager) Resume() (int, error) {
	if m.cfg.Dir == "" {
		return 0, nil
	}
	cps, corrupt, err := ScanDir(m.cfg.Dir)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.corrupt += int64(corrupt)
	requeued := 0
	for _, cp := range cps {
		if _, ok := m.jobs[cp.ID]; ok {
			continue
		}
		if cp.Done {
			j, err := m.addLocked(cp, StatusDone)
			if err != nil {
				m.corrupt++
				continue
			}
			if cp.Error != "" {
				j.status = StatusFailed
				j.errMsg = cp.Error
				j.errStatus = cp.ErrorStatus
			}
			j.trialsRun = cp.Knobs.Trials // unknown if stopped early; View prefers Result
			shedLocked(j)
			close(j.done)
			continue
		}
		j, err := m.addLocked(cp, StatusQueued)
		if err != nil {
			m.corrupt++
			continue
		}
		m.resumed++
		requeued++
		m.launchLocked(j)
	}
	return requeued, nil
}

// launchLocked starts a job's goroutine: wait for a concurrency slot,
// run the Exec, settle the outcome, always persist the final
// checkpoint state. Panics inside the Exec fail the job instead of
// the process.
func (m *Manager) launchLocked(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.wg.Add(1)
	go m.run(ctx, j)
}

// slots is the package-wide concurrency gate, sized per manager.
func (m *Manager) run(ctx context.Context, j *Job) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.cancel()
	defer func() {
		if r := recover(); r != nil {
			m.mu.Lock()
			m.panics++
			j.status = StatusFailed
			j.errMsg = fmt.Sprintf("job panicked: %v", r)
			j.errStatus = 500
			m.finishPersistLocked(j)
			m.mu.Unlock()
		}
	}()

	if !m.acquire(ctx, j) {
		// Cancelled or drained while still queued. A cancelled job's
		// checkpoint must go with it; a drained one stays resumable.
		m.mu.Lock()
		if j.canceled {
			j.status = StatusCancelled
			m.removeFileLocked(j)
		}
		m.mu.Unlock()
		return
	}
	defer m.release()

	m.mu.Lock()
	cp := j.cp
	j.status = StatusRunning
	j.started = time.Now()
	m.mu.Unlock()

	result, status, err := m.cfg.Exec(ctx, cp, m.progressFor(j))

	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = result
		j.cp.Done = true
		j.cp.Result = result
		j.cp.State = nil
		m.finishPersistLocked(j)
	case ctx.Err() != nil && j.canceled:
		j.status = StatusCancelled
		m.removeFileLocked(j)
	case ctx.Err() != nil:
		// Drain (or shutdown): leave the job resumable. Persist the
		// freshest state the progress callback captured, whatever the
		// checkpoint cadence said.
		j.status = StatusQueued
		m.persistLocked(j)
	default:
		if status == 0 {
			status = 500
		}
		j.status = StatusFailed
		j.errMsg = err.Error()
		j.errStatus = status
		m.finishPersistLocked(j)
	}
}

// acquire blocks until the job may compute; false means the context
// died first (cancel or drain while still queued).
func (m *Manager) acquire(ctx context.Context, j *Job) bool {
	select {
	case m.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (m *Manager) release() { <-m.sem }

// progressFor builds the per-chunk callback: record progress for
// polls, persist every CheckpointEvery chunks, pace if configured.
func (m *Manager) progressFor(j *Job) Progress {
	return func(nextChunk int, st *sim.CampaignState) error {
		m.mu.Lock()
		j.cp.NextChunk = nextChunk
		j.cp.State = st
		j.trialsRun = st.TrialsRun
		j.ciHalfWidth = sim.WilsonHalfWidth(st.Successes, st.TrialsRun, j.z)
		if nextChunk-j.lastPersist >= m.cfg.CheckpointEvery {
			m.persistLocked(j)
		}
		m.mu.Unlock()
		if m.cfg.ChunkDelay > 0 {
			time.Sleep(m.cfg.ChunkDelay)
		}
		return nil
	}
}

// persistLocked writes the job's current checkpoint atomically and
// reports whether it did; a write failure is counted, not fatal (the
// job still completes in memory; it just loses restart coverage back
// to its previous file).
func (m *Manager) persistLocked(j *Job) bool {
	if m.cfg.Dir == "" {
		return false
	}
	data, err := j.cp.Marshal()
	if err != nil {
		m.persistErrs++
		return false
	}
	if err := WriteAtomic(j.cp.Path(m.cfg.Dir), data); err != nil {
		m.persistErrs++
		return false
	}
	m.checkpoints++
	j.lastPersist = j.cp.NextChunk
	return true
}

// finishPersistLocked stamps the terminal error fields (if any) into
// the checkpoint and persists it. The intermediate solved-result cache
// is dropped either way: a done checkpoint embeds it in Result, a
// failed one has no further use for it. Once the final checkpoint is
// on disk the job sheds its request and result from memory; if the
// write failed they stay, and the job is served from memory.
func (m *Manager) finishPersistLocked(j *Job) {
	j.cp.Done = true
	j.cp.Solved = nil
	j.cp.Error = j.errMsg
	if j.errMsg != "" {
		j.cp.ErrorStatus = j.errStatus
		j.cp.Result = nil
		j.cp.State = nil
	}
	if m.persistLocked(j) {
		shedLocked(j)
	}
}

// shedLocked drops a finished job's request body and result document,
// which its persisted final checkpoint holds: a done job's result is
// read back from that file by Get. Nothing persists a finished job's
// checkpoint again, so the trimmed record is never written.
func shedLocked(j *Job) {
	j.cp.Request = nil
	j.cp.Result = nil
	j.result = nil
	j.onDisk = j.errMsg == ""
}

func (m *Manager) removeFileLocked(j *Job) {
	if m.cfg.Dir == "" {
		return
	}
	os.Remove(j.cp.Path(m.cfg.Dir))
}

// Get returns a snapshot of the job, if known. A done job's result is
// read from its final checkpoint, outside the manager's lock; if that
// file no longer reads or parses, the snapshot reports a 500 failure
// and the file counts as corrupt.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return View{}, false
	}
	v := m.viewLocked(j)
	if !j.onDisk {
		m.mu.Unlock()
		return v, true
	}
	path := j.cp.Path(m.cfg.Dir)
	m.mu.Unlock()
	res, err := readResult(path, id)
	if err == nil {
		v.Result = res
		return v, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs[id] != j {
		return View{}, false // cancelled while the file was read
	}
	m.corrupt++
	v.Status, v.Error, v.ErrorStatus = StatusFailed, "reading job result: "+err.Error(), 500
	return v, true
}

// readResult returns the result document of job id's final checkpoint
// at path.
func readResult(path, id string) (json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := ParseCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if cp.ID != id || !cp.Done || len(cp.Result) == 0 {
		return nil, errors.New("jobs: checkpoint holds no result for this job")
	}
	return cp.Result, nil
}

// Cancel stops a running or queued job and forgets it (checkpoint
// included). Cancelling a finished job just forgets it. Reports
// whether the ID was known.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	delete(m.jobs, id)
	m.cancelled++
	switch j.status {
	case StatusQueued, StatusRunning:
		j.canceled = true
		m.mu.Unlock()
		j.cancel()
		<-j.done
		return true
	default:
		m.removeFileLocked(j)
		m.mu.Unlock()
		return true
	}
}

// Drain stops accepting submissions, cancels every in-flight job so
// it checkpoints its freshest state, and waits (bounded by ctx) for
// all job goroutines to settle. Drained jobs stay on disk as
// resumable checkpoints; the next startup's Resume picks them up.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		if j.cancel != nil && (j.status == StatusQueued || j.status == StatusRunning) {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// viewLocked materializes the poll snapshot.
func (m *Manager) viewLocked(j *Job) View {
	v := View{
		ID:              j.cp.ID,
		InstanceHash:    j.cp.InstanceHash,
		Status:          j.status,
		TrialsRequested: j.cp.Knobs.Trials,
		TrialsRun:       j.trialsRun,
		ResumedTrials:   j.resumedFrom,
		CIHalfWidth:     j.ciHalfWidth,
		Result:          j.result,
		Error:           j.errMsg,
		ErrorStatus:     j.errStatus,
	}
	if j.status == StatusRunning && j.trialsRun > j.resumedFrom {
		if el := time.Since(j.started).Seconds(); el > 0 {
			v.TrialsPerSec = float64(j.trialsRun-j.resumedFrom) / el
		}
	}
	return v
}

// Stats snapshots the gauge/counter block.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Cancelled:   m.cancelled,
		Submitted:   m.submitted,
		Deduped:     m.deduped,
		Resumed:     m.resumed,
		Checkpoints: m.checkpoints,
		Corrupt:     m.corrupt,
		PersistErrs: m.persistErrs,
		Panics:      m.panics,
	}
	for _, j := range m.jobs {
		switch j.status {
		case StatusQueued:
			s.Queued++
		case StatusRunning:
			s.Running++
		case StatusDone:
			s.Done++
		case StatusFailed:
			s.Failed++
		}
	}
	return s
}
