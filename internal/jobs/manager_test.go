package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"energysched/internal/hist"
	"energysched/internal/sim"
)

// fakeExec is a deterministic stand-in for the server's campaign
// exec: per-trial values derived from the trial index alone, merged
// chunk by chunk exactly like the real chunked campaign, honoring
// resume state and context cancellation. The final result therefore
// depends only on the knobs — interrupted-and-resumed must equal
// uninterrupted byte-for-byte, the same contract the real exec has.
func fakeExec(ctx context.Context, cp *Checkpoint, progress Progress) (json.RawMessage, int, error) {
	k := cp.Knobs
	numChunks := (k.Trials + k.ChunkSize - 1) / k.ChunkSize
	eh := hist.New(hist.OutcomeBounds())
	mh := hist.New(hist.OutcomeBounds())
	st := sim.CampaignState{MinEnergy: math.Inf(1), MaxEnergy: math.Inf(-1),
		MinMakespan: math.Inf(1), MaxMakespan: math.Inf(-1)}
	if cp.State != nil {
		st = *cp.State
		if err := eh.Restore(st.Energy); err != nil {
			return nil, 0, err
		}
		if err := mh.Restore(st.Makespan); err != nil {
			return nil, 0, err
		}
	}
	for c := cp.NextChunk; c < numChunks; c++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		lo, hi := c*k.ChunkSize, (c+1)*k.ChunkSize
		if hi > k.Trials {
			hi = k.Trials
		}
		for t := lo; t < hi; t++ {
			e, m := 1+float64(t%13), 2+float64(t%7)
			st.SumEnergy += e
			st.SumMakespan += m
			eh.Observe(e)
			mh.Observe(m)
			st.MinEnergy = math.Min(st.MinEnergy, e)
			st.MaxEnergy = math.Max(st.MaxEnergy, e)
			st.MinMakespan = math.Min(st.MinMakespan, m)
			st.MaxMakespan = math.Max(st.MaxMakespan, m)
			if t%10 != 0 {
				st.Successes++
			} else {
				st.DeadlineMisses++
			}
			st.FaultFreeTrials++
		}
		st.TrialsRun = hi
		snap := st
		snap.Energy = eh.State()
		snap.Makespan = mh.State()
		if err := progress(c+1, &snap); err != nil {
			return nil, 0, err
		}
	}
	res, err := json.Marshal(struct {
		Trials    int     `json:"trials"`
		Successes int     `json:"successes"`
		SumEnergy float64 `json:"sumEnergy"`
	}{st.TrialsRun, st.Successes, st.SumEnergy})
	return res, 0, err
}

func newTestManager(t *testing.T, dir string, exec Exec, delay time.Duration) *Manager {
	t.Helper()
	m, err := New(Config{Dir: dir, Exec: exec, CheckpointEvery: 1, MaxConcurrent: 2, ChunkDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitStatus(t *testing.T, m *Manager, id string, want Status) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := m.Get(id); ok && v.Status == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, v)
	return View{}
}

// TestManagerLifecycle: submit → done with a persisted finished
// checkpoint; resubmission dedupes onto the finished job.
func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, fakeExec, 0)
	cp := testCheckpoint(t)
	v, dedup, err := m.Submit(cp)
	if err != nil || dedup {
		t.Fatalf("submit: %v dedup=%t", err, dedup)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh job status %s", v.Status)
	}
	done := waitStatus(t, m, cp.ID, StatusDone)
	if len(done.Result) == 0 || done.Error != "" {
		t.Fatalf("done view: %+v", done)
	}
	// The finished checkpoint must be on disk, parseable, and Done.
	data, err := os.ReadFile(cp.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	final, err := ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || !bytes.Equal(final.Result, done.Result) {
		t.Fatalf("final checkpoint: done=%t", final.Done)
	}
	// Same-ID resubmission returns the existing job, no rerun.
	v2, dedup, err := m.Submit(testCheckpoint(t))
	if err != nil || !dedup || v2.Status != StatusDone {
		t.Fatalf("resubmit: %+v dedup=%t err=%v", v2, dedup, err)
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Deduped != 1 || st.Done != 1 || st.Checkpoints == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestManagerDrainResumeBitIdentity is the manager-level crash proof:
// drain mid-run, rebuild the manager over the same directory, Resume,
// and the finished result must be byte-identical to an uninterrupted
// run — and the resumed execution must not have restarted from chunk
// zero.
func TestManagerDrainResumeBitIdentity(t *testing.T) {
	// Uninterrupted reference.
	ref := newTestManager(t, t.TempDir(), fakeExec, 0)
	refCP := testCheckpoint(t)
	if _, _, err := ref.Submit(refCP); err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, ref, refCP.ID, StatusDone).Result

	dir := t.TempDir()
	var minChunk atomic.Int64
	minChunk.Store(1 << 30)
	spy := func(ctx context.Context, cp *Checkpoint, progress Progress) (json.RawMessage, int, error) {
		if int64(cp.NextChunk) < minChunk.Load() {
			minChunk.Store(int64(cp.NextChunk))
		}
		return fakeExec(ctx, cp, progress)
	}
	m1 := newTestManager(t, dir, spy, 20*time.Millisecond)
	cp := testCheckpoint(t)
	if _, _, err := m1.Submit(cp); err != nil {
		t.Fatal(err)
	}
	// Wait for real progress, then drain mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := m1.Get(cp.ID)
		if v.TrialsRun > 0 && v.TrialsRun < v.TrialsRequested {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got mid-flight: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := m1.Submit(testCheckpoint(t)); err == nil {
		t.Fatal("draining manager accepted a submission")
	}

	minChunk.Store(1 << 30)
	m2 := newTestManager(t, dir, spy, 0)
	n, err := m2.Resume()
	if err != nil || n != 1 {
		t.Fatalf("resume: n=%d err=%v", n, err)
	}
	v := waitStatus(t, m2, cp.ID, StatusDone)
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("resumed result differs:\nresumed: %s\nref:     %s", v.Result, want)
	}
	if minChunk.Load() == 0 {
		t.Fatal("resume restarted from chunk 0 instead of the checkpoint")
	}
	if v.ResumedTrials == 0 {
		t.Fatalf("view reports no resumed trials: %+v", v)
	}
	if st := m2.Stats(); st.Resumed != 1 {
		t.Fatalf("stats after resume: %+v", st)
	}
	// A second Resume over the same directory is a no-op.
	if n, err := m2.Resume(); err != nil || n != 0 {
		t.Fatalf("second resume: n=%d err=%v", n, err)
	}
}

// TestManagerCancel: DELETE semantics — cancel stops the run, forgets
// the job, removes the checkpoint.
func TestManagerCancel(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, fakeExec, 20*time.Millisecond)
	cp := testCheckpoint(t)
	if _, _, err := m.Submit(cp); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, cp.ID, StatusRunning)
	if !m.Cancel(cp.ID) {
		t.Fatal("cancel reported unknown job")
	}
	if _, ok := m.Get(cp.ID); ok {
		t.Fatal("cancelled job still visible")
	}
	if _, err := os.Stat(cp.Path(dir)); !os.IsNotExist(err) {
		t.Fatalf("cancelled checkpoint still on disk: %v", err)
	}
	if m.Cancel("0123-unknown") {
		t.Fatal("cancel of unknown ID reported true")
	}
	if st := m.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestManagerFailureAndPanic: an exec error fails the job with its
// status and persists a failed checkpoint that resumes as failed; a
// panicking exec fails the job instead of the process.
func TestManagerFailureAndPanic(t *testing.T) {
	dir := t.TempDir()
	boom := func(ctx context.Context, cp *Checkpoint, progress Progress) (json.RawMessage, int, error) {
		if cp.Knobs.Seed == 42 {
			panic("exec exploded")
		}
		return nil, 422, fmt.Errorf("instance is infeasible")
	}
	m := newTestManager(t, dir, boom, 0)
	cp := testCheckpoint(t)
	if _, _, err := m.Submit(cp); err != nil {
		t.Fatal(err)
	}
	v := waitStatus(t, m, cp.ID, StatusFailed)
	if v.Error != "instance is infeasible" || v.ErrorStatus != 422 {
		t.Fatalf("failed view: %+v", v)
	}
	data, err := os.ReadFile(cp.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fc, err := ParseCheckpoint(data); err != nil || !fc.Done || fc.Error == "" {
		t.Fatalf("failed checkpoint: %+v err=%v", fc, err)
	}

	pk := testKnobs()
	pk.Seed = 42
	pcp := testCheckpoint(t)
	pcp.Knobs = pk
	pcp.ID = ID(pcp.InstanceHash, pcp.Fingerprint, pk)
	if _, _, err := m.Submit(pcp); err != nil {
		t.Fatal(err)
	}
	pv := waitStatus(t, m, pcp.ID, StatusFailed)
	if pv.ErrorStatus != 500 || pv.Error == "" {
		t.Fatalf("panicked view: %+v", pv)
	}
	if st := m.Stats(); st.Panics != 1 || st.Failed != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// A failed checkpoint resumes as a failed (poll-able) job, not a rerun.
	m2 := newTestManager(t, dir, fakeExec, 0)
	if n, err := m2.Resume(); err != nil || n != 0 {
		t.Fatalf("resume of failed jobs: n=%d err=%v", n, err)
	}
	if v, ok := m2.Get(cp.ID); !ok || v.Status != StatusFailed || v.ErrorStatus != 422 {
		t.Fatalf("resumed failed job: %+v ok=%t", v, ok)
	}
}

// TestManagerDoneJobKeepsOnlyStatus: once a done job's final
// checkpoint is on disk, the manager drops its request body and result
// from memory and Get reads the result back from the file — also after
// Resume. A file that no longer parses answers a 500 and counts as
// corrupt. Without a state directory, or when the final write fails,
// the result stays in memory.
func TestManagerDoneJobKeepsOnlyStatus(t *testing.T) {
	shed := func(t *testing.T, m *Manager, id string) bool {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		j := m.jobs[id]
		return j.onDisk && j.result == nil && j.cp.Request == nil && j.cp.Result == nil
	}
	ref := newTestManager(t, "", fakeExec, 0)
	cp := testCheckpoint(t)
	if _, _, err := ref.Submit(cp); err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, ref, cp.ID, StatusDone).Result
	if len(want) == 0 || shed(t, ref, cp.ID) {
		t.Fatal("memory-only manager must keep the result in memory")
	}

	dir := t.TempDir()
	m := newTestManager(t, dir, fakeExec, 0)
	if _, _, err := m.Submit(testCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	if v := waitStatus(t, m, cp.ID, StatusDone); !bytes.Equal(v.Result, want) {
		t.Fatalf("result read from the checkpoint: %s, want %s", v.Result, want)
	}
	if !shed(t, m, cp.ID) {
		t.Fatal("done job still holds its request or result in memory")
	}

	m2 := newTestManager(t, dir, fakeExec, 0)
	if n, err := m2.Resume(); err != nil || n != 0 {
		t.Fatalf("resume: n=%d err=%v", n, err)
	}
	if !shed(t, m2, cp.ID) {
		t.Fatal("Resume loaded a done job's request or result into memory")
	}
	if v, ok := m2.Get(cp.ID); !ok || v.Status != StatusDone || !bytes.Equal(v.Result, want) {
		t.Fatalf("resumed done job: %+v ok=%t", v, ok)
	}

	if err := os.WriteFile(cp.Path(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, ok := m2.Get(cp.ID)
	if !ok || v.Status != StatusFailed || v.ErrorStatus != 500 || v.Result != nil {
		t.Fatalf("unreadable result: %+v ok=%t", v, ok)
	}
	if st := m2.Stats(); st.Corrupt != 1 || st.Done != 1 {
		t.Fatalf("stats after an unreadable result: %+v", st)
	}

	// The final write fails when the state directory is gone: the job
	// completes and keeps serving its result from memory.
	gone := t.TempDir()
	m3 := newTestManager(t, gone, fakeExec, 20*time.Millisecond)
	if _, _, err := m3.Submit(testCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m3, cp.ID, StatusRunning)
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if v := waitStatus(t, m3, cp.ID, StatusDone); !bytes.Equal(v.Result, want) {
		t.Fatalf("result after a failed final write: %s, want %s", v.Result, want)
	}
	if shed(t, m3, cp.ID) || m3.Stats().PersistErrs == 0 {
		t.Fatal("a job whose final write failed dropped its in-memory result")
	}
}
