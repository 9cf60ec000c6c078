// Package jobs is the durable campaign-job subsystem: asynchronous
// million-trial simulation campaigns that survive daemon crashes and
// restarts. A job's entire restartable identity lives in one versioned
// JSON checkpoint file — the original request, the campaign knobs, the
// next chunk to run and the merged aggregate of every chunk before it
// — written atomically (write-temp + fsync + rename + dir fsync) to a
// state directory every few chunks. Because trial t of a campaign owns
// the counter-split stream (seed, t) wherever it runs (internal/rng),
// a job resumed from its checkpoint after a SIGKILL produces a final
// Campaign byte-identical to one that was never interrupted; the
// jobsmoke CI job proves exactly that.
//
// The package splits in two: this file is the checkpoint format
// (parse/marshal/validate and the atomic file I/O), manager.go is the
// execution side (queueing, progress, persistence cadence, resume
// scanning, drain).
package jobs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"energysched/internal/sim"
)

// CheckpointVersion is the format version stamped into every
// checkpoint; a file carrying any other version is rejected rather
// than guessed at, so a format change can never silently resume a job
// into wrong numbers.
const CheckpointVersion = 1

// checkpointSuffix names checkpoint files: <state-dir>/<job-id>.job.json.
const checkpointSuffix = ".job.json"

// tempPrefix starts the name of WriteAtomic's temp files. One that
// outlives its write is a crash leftover: New removes it.
const tempPrefix = ".ckpt-"

// Knobs are the campaign-identity parameters of a job: everything
// that, together with the instance and solver fingerprint, determines
// the final Campaign bit-for-bit. They are part of the job ID, so two
// submissions differing in any knob are distinct jobs.
type Knobs struct {
	// Trials is the requested campaign size (the stopping rule may run
	// fewer).
	Trials int `json:"trials"`
	// ChunkSize is the chunk granularity; checkpoints and the stopping
	// rule act at its boundaries, making it identity, not tuning.
	ChunkSize int `json:"chunkSize"`
	// Epsilon > 0 enables early stopping at that Wilson CI half-width.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Confidence is the CI level for Epsilon (0 = the 0.99 default).
	Confidence float64 `json:"confidence,omitempty"`
	// Seed addresses the per-trial fault streams.
	Seed int64 `json:"seed"`
	// Policy is the recovery policy name ("" = same-speed).
	Policy string `json:"policy,omitempty"`
	// WorstCase replays every scheduled execution.
	WorstCase bool `json:"worstCase,omitempty"`
}

// Checkpoint is the durable state of one campaign job. Request holds
// the submitted request body verbatim (the instance travels inside
// it), so a restarted daemon can rebuild the solver input without any
// other source; State holds the merged aggregate of chunks
// [0, NextChunk). Result/Error are only set once Done.
type Checkpoint struct {
	Version      int             `json:"version"`
	ID           string          `json:"id"`
	InstanceHash string          `json:"instanceHash"`
	Fingerprint  string          `json:"fingerprint"`
	Knobs        Knobs           `json:"knobs"`
	Request      json.RawMessage `json:"request"`
	// Solved caches the solver-result document of an in-progress job so
	// a resume reuses the original solve verbatim instead of re-solving
	// — both cheaper and necessary for byte-identity, since the result
	// carries nondeterministic solve wall time. Dropped once Done (the
	// final Result embeds it).
	Solved      json.RawMessage    `json:"solved,omitempty"`
	NextChunk   int                `json:"nextChunk"`
	State       *sim.CampaignState `json:"state,omitempty"`
	Done        bool               `json:"done,omitempty"`
	Result      json.RawMessage    `json:"result,omitempty"`
	Error       string             `json:"error,omitempty"`
	ErrorStatus int                `json:"errorStatus,omitempty"`
}

// Validate rejects knob combinations no job endpoint would accept;
// shared by the checkpoint parser and the server's request validation
// so a doctored state file cannot smuggle in parameters the API would
// refuse.
func (k *Knobs) Validate() error {
	if k.Trials <= 0 || k.Trials > sim.MaxJobCampaignTrials {
		return fmt.Errorf("jobs: trials %d out of range (0, %d]", k.Trials, sim.MaxJobCampaignTrials)
	}
	if k.ChunkSize < MinChunkSize || k.ChunkSize > MaxChunkSize {
		return fmt.Errorf("jobs: chunk size %d out of range [%d, %d]", k.ChunkSize, MinChunkSize, MaxChunkSize)
	}
	if k.Epsilon < 0 || k.Epsilon >= 1 {
		return fmt.Errorf("jobs: epsilon %v out of range [0, 1)", k.Epsilon)
	}
	if _, err := sim.ZForConfidence(k.Confidence); err != nil {
		return err
	}
	if k.Policy != "" {
		if _, err := sim.ParsePolicy(k.Policy); err != nil {
			return err
		}
	}
	return nil
}

// Chunk-size bounds for job campaigns: below 64 the per-chunk
// coordination dominates, above 65536 checkpoints get too coarse to
// bound lost work meaningfully.
const (
	MinChunkSize = 64
	MaxChunkSize = 65536
)

// ID derives the deterministic job ID for a campaign: the instance
// hash, a separator, and a 16-hex digest of the solver fingerprint and
// knobs. Deterministic on purpose — resubmitting the same campaign
// dedupes onto the running (or finished) job, and the router can lift
// the instance hash back out of the ID to route job polls to the
// owning backend's ring position.
func ID(instanceHash, fingerprint string, k Knobs) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "energysched/job/v%d|%s|", CheckpointVersion, fingerprint)
	kj, _ := json.Marshal(k)
	h.Write(kj)
	return instanceHash + "-" + hex.EncodeToString(h.Sum(nil))
}

// InstanceHashOfID recovers the instance-hash prefix of a job ID (the
// router's affinity key), or "" if the ID is not of ID's shape.
func InstanceHashOfID(id string) string {
	i := strings.IndexByte(id, '-')
	if i <= 0 {
		return ""
	}
	return id[:i]
}

// validID reports whether s is safe to use as a checkpoint file stem:
// lowercase hex and dashes only, bounded length, no dots or
// separators, so a checkpoint can never escape its state directory.
func validID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && c != '-' {
			return false
		}
	}
	return true
}

// ParseCheckpoint decodes and validates one checkpoint file. It
// accepts only files this version wrote (or could have written):
// version mismatches, malformed IDs, knob values the API would
// refuse, and progress/state inconsistencies are all rejected — a
// corrupt or doctored checkpoint must fail parsing, never resume into
// silently wrong numbers. Accepted checkpoints re-marshal canonically:
// Marshal ∘ ParseCheckpoint is idempotent byte-for-byte
// (FuzzParseCheckpoint holds it there).
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("jobs: malformed checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("jobs: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if !validID(cp.ID) {
		return nil, fmt.Errorf("jobs: invalid job ID %q", cp.ID)
	}
	if !validID(cp.InstanceHash) || strings.Contains(cp.InstanceHash, "-") {
		return nil, fmt.Errorf("jobs: invalid instance hash %q", cp.InstanceHash)
	}
	if want := ID(cp.InstanceHash, cp.Fingerprint, cp.Knobs); cp.ID != want {
		return nil, fmt.Errorf("jobs: job ID %q does not match its contents (want %q)", cp.ID, want)
	}
	if err := cp.Knobs.Validate(); err != nil {
		return nil, err
	}
	if req := bytes.TrimSpace(cp.Request); len(req) == 0 || req[0] != '{' || !json.Valid(req) {
		return nil, fmt.Errorf("jobs: checkpoint carries no valid request body")
	}
	if len(cp.Solved) != 0 {
		if cp.Done {
			return nil, fmt.Errorf("jobs: finished checkpoint still carries a solved result")
		}
		if sv := bytes.TrimSpace(cp.Solved); sv[0] != '{' || !json.Valid(sv) {
			return nil, fmt.Errorf("jobs: checkpoint carries an invalid solved result")
		}
	}
	numChunks := (cp.Knobs.Trials + cp.Knobs.ChunkSize - 1) / cp.Knobs.ChunkSize
	if cp.NextChunk < 0 || cp.NextChunk > numChunks {
		return nil, fmt.Errorf("jobs: next chunk %d out of range [0, %d]", cp.NextChunk, numChunks)
	}
	if cp.State != nil {
		if err := cp.State.Validate(); err != nil {
			return nil, err
		}
		want := cp.NextChunk * cp.Knobs.ChunkSize
		if want > cp.Knobs.Trials {
			want = cp.Knobs.Trials
		}
		if cp.State.TrialsRun != want {
			return nil, fmt.Errorf("jobs: state has %d trials, next chunk %d implies %d",
				cp.State.TrialsRun, cp.NextChunk, want)
		}
	} else if cp.NextChunk != 0 && !cp.Done {
		return nil, fmt.Errorf("jobs: checkpoint at chunk %d has no state", cp.NextChunk)
	}
	if cp.Done {
		if cp.Error == "" && (len(cp.Result) == 0 || !json.Valid(cp.Result)) {
			return nil, fmt.Errorf("jobs: finished checkpoint carries neither result nor error")
		}
		if cp.Error != "" && len(cp.Result) != 0 {
			return nil, fmt.Errorf("jobs: finished checkpoint carries both result and error")
		}
	} else {
		if len(cp.Result) != 0 || cp.Error != "" || cp.ErrorStatus != 0 {
			return nil, fmt.Errorf("jobs: unfinished checkpoint carries a result or error")
		}
	}
	if cp.ErrorStatus != 0 && (cp.Error == "" || cp.ErrorStatus < 400 || cp.ErrorStatus > 599) {
		return nil, fmt.Errorf("jobs: invalid error status %d", cp.ErrorStatus)
	}
	return &cp, nil
}

// Marshal renders the checkpoint in its canonical byte form — the
// form WriteAtomic persists and ParseCheckpoint re-accepts.
func (cp *Checkpoint) Marshal() ([]byte, error) {
	return json.Marshal(cp)
}

// Path returns the checkpoint's file path under dir.
func (cp *Checkpoint) Path(dir string) string {
	return filepath.Join(dir, cp.ID+checkpointSuffix)
}

// WriteAtomic persists data to path so a crash at any instant leaves
// either the complete previous file or the complete new one: the
// bytes go to a temp file in the same directory, are fsynced, renamed
// over the target, and the directory is fsynced so the rename itself
// is durable.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// removeTempFiles deletes the temp files a crash between WriteAtomic's
// create and rename left in dir. ScanDir skips them, so without this
// they would pile up across crashes. It must run before anything
// writes a checkpoint, or it could delete a write in flight.
func removeTempFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanDir parses every checkpoint file in dir, returning the valid
// ones and the number of files that failed to parse (corrupt files
// are skipped, not fatal — one bad checkpoint must not take down the
// daemon's whole job recovery). A missing directory is an empty scan.
func ScanDir(dir string) (cps []*Checkpoint, corrupt int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			corrupt++
			continue
		}
		cp, err := ParseCheckpoint(data)
		if err != nil || cp.ID+checkpointSuffix != name {
			corrupt++
			continue
		}
		cps = append(cps, cp)
	}
	return cps, corrupt, nil
}
