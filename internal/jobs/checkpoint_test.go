package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energysched/internal/hist"
	"energysched/internal/sim"
)

const (
	testHash        = "0123456789abcdef0123456789abcdef"
	testFingerprint = "solver=auto|strategy=chain-first|exact=12|k=0|lb=true"
)

// testKnobs is a valid knob set shared by the checkpoint tests.
func testKnobs() Knobs {
	return Knobs{Trials: 1024, ChunkSize: 256, Seed: 7}
}

// testState builds a structurally valid CampaignState covering chunks
// [0, nextChunk) of the test knobs.
func testState(k Knobs, nextChunk int) *sim.CampaignState {
	run := nextChunk * k.ChunkSize
	if run > k.Trials {
		run = k.Trials
	}
	eh := hist.New(hist.OutcomeBounds())
	mh := hist.New(hist.OutcomeBounds())
	st := sim.CampaignState{
		TrialsRun: run, Successes: run - run/10, DeadlineMisses: run / 10,
		FaultFreeTrials: run,
		MinEnergy:       1, MaxEnergy: 13, MinMakespan: 2, MaxMakespan: 8,
	}
	for t := 0; t < run; t++ {
		e, m := 1+float64(t%13), 2+float64(t%7)
		st.SumEnergy += e
		st.SumMakespan += m
		eh.Observe(e)
		mh.Observe(m)
	}
	st.Energy = eh.State()
	st.Makespan = mh.State()
	return &st
}

func testCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	k := testKnobs()
	return &Checkpoint{
		Version:      CheckpointVersion,
		ID:           ID(testHash, testFingerprint, k),
		InstanceHash: testHash,
		Fingerprint:  testFingerprint,
		Knobs:        k,
		Request:      json.RawMessage(`{"instance":{"tasks":[{"name":"a","weight":1}]},"trials":1024}`),
	}
}

// TestCheckpointRoundTrip: Marshal → Parse → Marshal must be
// byte-identical, fresh and mid-run and finished alike.
func TestCheckpointRoundTrip(t *testing.T) {
	fresh := testCheckpoint(t)
	mid := testCheckpoint(t)
	mid.NextChunk = 2
	mid.State = testState(mid.Knobs, 2)
	mid.Solved = json.RawMessage(`{"solver":"continuous-convex","energy":6.75}`)
	done := testCheckpoint(t)
	done.NextChunk = 4
	done.Done = true
	done.Result = json.RawMessage(`{"campaign":{"trials":1024}}`)
	failed := testCheckpoint(t)
	failed.Done = true
	failed.Error = "solver exploded"
	failed.ErrorStatus = 422
	for name, cp := range map[string]*Checkpoint{"fresh": fresh, "mid": mid, "done": done, "failed": failed} {
		m1, err := cp.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseCheckpoint(m1)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", name, err, m1)
		}
		m2, err := back.Marshal()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("%s: round trip not byte-identical:\n1: %s\n2: %s", name, m1, m2)
		}
	}
}

// TestParseCheckpointRejects walks the rejection surface, including
// the file-safety and internal-consistency checks a doctored file
// would trip.
func TestParseCheckpointRejects(t *testing.T) {
	mutate := func(f func(*Checkpoint)) []byte {
		cp := testCheckpoint(t)
		f(cp)
		b, err := cp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"junk":           []byte("{not json"),
		"empty":          []byte(""),
		"version 0":      mutate(func(c *Checkpoint) { c.Version = 0 }),
		"future version": mutate(func(c *Checkpoint) { c.Version = CheckpointVersion + 1 }),
		"traversal ID":   mutate(func(c *Checkpoint) { c.ID = "../../etc/passwd" }),
		"uppercase ID":   mutate(func(c *Checkpoint) { c.ID = "ABCDEF-123" }),
		"mismatched ID":  mutate(func(c *Checkpoint) { c.ID = testHash + "-0000000000000000" }),
		"bad hash":       mutate(func(c *Checkpoint) { c.InstanceHash = "zz" }),
		"zero trials":    mutate(func(c *Checkpoint) { c.Knobs.Trials = 0; c.ID = ID(c.InstanceHash, c.Fingerprint, c.Knobs) }),
		"huge trials": mutate(func(c *Checkpoint) {
			c.Knobs.Trials = sim.MaxJobCampaignTrials + 1
			c.ID = ID(c.InstanceHash, c.Fingerprint, c.Knobs)
		}),
		"tiny chunk":      mutate(func(c *Checkpoint) { c.Knobs.ChunkSize = 1; c.ID = ID(c.InstanceHash, c.Fingerprint, c.Knobs) }),
		"bad policy":      mutate(func(c *Checkpoint) { c.Knobs.Policy = "bogus"; c.ID = ID(c.InstanceHash, c.Fingerprint, c.Knobs) }),
		"bad confidence":  mutate(func(c *Checkpoint) { c.Knobs.Confidence = 0.5; c.ID = ID(c.InstanceHash, c.Fingerprint, c.Knobs) }),
		"no request":      mutate(func(c *Checkpoint) { c.Request = nil }),
		"invalid request": mutate(func(c *Checkpoint) { c.Request = json.RawMessage("42") }),
		"invalid solved":  mutate(func(c *Checkpoint) { c.Solved = json.RawMessage("42") }),
		"solved when done": mutate(func(c *Checkpoint) {
			c.Done = true
			c.Result = json.RawMessage(`{}`)
			c.Solved = json.RawMessage(`{}`)
		}),
		"chunk overrun":   mutate(func(c *Checkpoint) { c.NextChunk = 99 }),
		"chunk w/o state": mutate(func(c *Checkpoint) { c.NextChunk = 1 }),
		"state mismatch":  mutate(func(c *Checkpoint) { c.NextChunk = 3; c.State = testState(c.Knobs, 2) }),
		"result early":    mutate(func(c *Checkpoint) { c.Result = json.RawMessage(`{}`) }),
		"error early":     mutate(func(c *Checkpoint) { c.Error = "x" }),
		"done empty":      mutate(func(c *Checkpoint) { c.Done = true }),
		"done both":       mutate(func(c *Checkpoint) { c.Done = true; c.Result = json.RawMessage(`{}`); c.Error = "x" }),
		"bad status":      mutate(func(c *Checkpoint) { c.Done = true; c.Error = "x"; c.ErrorStatus = 200 }),
	}
	for name, data := range cases {
		if _, err := ParseCheckpoint(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJobIDShape: deterministic, knob-sensitive, file-safe, and the
// router can lift the instance hash back out.
func TestJobIDShape(t *testing.T) {
	k := testKnobs()
	id := ID(testHash, testFingerprint, k)
	if id != ID(testHash, testFingerprint, k) {
		t.Fatal("job ID not deterministic")
	}
	if !validID(id) {
		t.Fatalf("job ID %q not file-safe", id)
	}
	if got := InstanceHashOfID(id); got != testHash {
		t.Fatalf("instance hash of %q = %q, want %q", id, got, testHash)
	}
	k2 := k
	k2.Seed++
	if ID(testHash, testFingerprint, k2) == id {
		t.Fatal("seed change did not change the job ID")
	}
	if ID(testHash, testFingerprint+"x", k) == id {
		t.Fatal("fingerprint change did not change the job ID")
	}
	if InstanceHashOfID("nodash") != "" || InstanceHashOfID("-lead") != "" {
		t.Fatal("malformed IDs should yield no instance hash")
	}
}

// TestWriteAtomicAndScanDir: atomic writes land complete files,
// overwrite cleanly, leave no temp residue; ScanDir returns only
// valid checkpoints and counts the rest as corrupt.
func TestWriteAtomicAndScanDir(t *testing.T) {
	dir := t.TempDir()
	cp := testCheckpoint(t)
	data, _ := cp.Marshal()
	path := cp.Path(dir)
	if err := WriteAtomic(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v, equal=%t", err, bytes.Equal(got, data))
	}
	// Overwrite with a progressed checkpoint.
	cp.NextChunk = 2
	cp.State = testState(cp.Knobs, 2)
	data2, _ := cp.Marshal()
	if err := WriteAtomic(path, data2); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data2) {
		t.Fatal("overwrite did not replace contents")
	}
	// Junk and stranger files must be skipped, not fatal.
	os.WriteFile(filepath.Join(dir, "corrupt.job.json"), []byte("{"), 0o644)
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644)
	// A valid checkpoint under the wrong file name is corrupt too.
	os.WriteFile(filepath.Join(dir, "aaaa.job.json"), data2, 0o644)
	cps, corrupt, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].ID != cp.ID || cps[0].NextChunk != 2 {
		t.Fatalf("scan found %d checkpoints: %+v", len(cps), cps)
	}
	if corrupt != 2 {
		t.Fatalf("corrupt count %d, want 2", corrupt)
	}
	for _, e := range mustReadDir(t, dir) {
		if strings.HasPrefix(e, ".ckpt-") {
			t.Fatalf("temp file %s left behind", e)
		}
	}
	// Missing directory: empty scan, no error.
	if cps, corrupt, err := ScanDir(filepath.Join(dir, "nope")); err != nil || len(cps) != 0 || corrupt != 0 {
		t.Fatalf("missing dir scan: %v %v %v", cps, corrupt, err)
	}
}

// TestNewRemovesCrashTempFiles: a temp file a crash left between
// WriteAtomic's create and rename is gone once New has run, and the
// valid checkpoint beside it is untouched.
func TestNewRemovesCrashTempFiles(t *testing.T) {
	dir := t.TempDir()
	cp := testCheckpoint(t)
	data, _ := cp.Marshal()
	if err := WriteAtomic(cp.Path(dir), data); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, ".ckpt-123")
	if err := os.WriteFile(leftover, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir, Exec: fakeExec}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("crash leftover %s survived New (stat err %v)", leftover, err)
	}
	if got, err := os.ReadFile(cp.Path(dir)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("checkpoint beside the leftover changed: err %v, equal=%t", err, bytes.Equal(got, data))
	}
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// FuzzParseCheckpoint holds the parser's three contracts under
// arbitrary input: it never panics, a version other than the current
// one is never accepted, and anything accepted re-marshals
// idempotently (Marshal ∘ Parse is a fixpoint byte-for-byte — the
// property that makes checkpoint rewrites stable across daemon
// generations).
func FuzzParseCheckpoint(f *testing.F) {
	k := Knobs{Trials: 1024, ChunkSize: 256, Seed: 7}
	seed := &Checkpoint{
		Version:      CheckpointVersion,
		ID:           ID(testHash, testFingerprint, k),
		InstanceHash: testHash,
		Fingerprint:  testFingerprint,
		Knobs:        k,
		Request:      json.RawMessage(`{"trials":1024}`),
	}
	sj, _ := seed.Marshal()
	f.Add(sj)
	mid := *seed
	mid.NextChunk = 2
	mid.State = testState(k, 2)
	mj, _ := mid.Marshal()
	f.Add(mj)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"id":"a-b"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ParseCheckpoint(data)
		if err != nil {
			return
		}
		if cp.Version != CheckpointVersion {
			t.Fatalf("accepted version %d", cp.Version)
		}
		m1, err := cp.Marshal()
		if err != nil {
			t.Fatalf("accepted checkpoint does not marshal: %v", err)
		}
		cp2, err := ParseCheckpoint(m1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, m1)
		}
		m2, err := cp2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("re-marshal not idempotent:\n1: %s\n2: %s", m1, m2)
		}
	})
}
