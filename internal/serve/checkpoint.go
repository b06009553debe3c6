package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"compass/internal/telemetry"
)

// CheckpointVersion identifies the checkpoint file layout; bump on
// breaking changes so a daemon never misreads state written by an
// incompatible build.
const CheckpointVersion = 3

// Checkpoint is the durable state of one job at a quiescent pause point:
// everything a restarted compassd needs to continue the job — or to
// refuse it as stale. Engine holds the kind-specific resumable state
// (the frontier of pinned decision prefixes plus the partial
// report/histogram); Telemetry is the cumulative compass/telemetry/v3
// snapshot, restored via telemetry.Restore so the resumed job continues
// the same monotone stream.
type Checkpoint struct {
	Version  int     `json:"version"`
	SpecHash string  `json:"spec_hash"`
	JobID    string  `json:"job_id"`
	Spec     JobSpec `json:"spec"`
	Runs     int     `json:"runs"`
	Done     bool    `json:"done"`
	Error    string  `json:"error,omitempty"`
	// Engine is the kind-specific state: litmus.JobState, exhaustState,
	// or ReportState.
	Engine json.RawMessage `json:"engine"`
	// Result is the rendered outcome, present once Done.
	Result    *JobResult          `json:"result,omitempty"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Shard is a coordinator job's lease table: unleased prefixes,
	// outstanding leases (reclaimed under a bumped epoch on resume), and
	// completed lease IDs (for idempotent re-acks).
	Shard *ShardState `json:"shard,omitempty"`
}

// Store persists checkpoints in a state directory, one JSON file per
// job, written atomically and durably: the bytes go to a temp file in the
// same directory, which is synced and then renamed over the target, and
// the directory is synced after the rename. A kill or a power loss at any
// instant leaves either the previous or the new checkpoint, and a
// completed Save survives both. A torn write can only ever be a leftover
// .tmp file, which loading ignores.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the state directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(jobID string) string {
	return filepath.Join(st.dir, jobID+".json")
}

// validJobID guards the filename-derived namespace (and Load against
// path traversal).
func validJobID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Save writes the checkpoint atomically and durably and returns the
// encoded size.
func (st *Store) Save(cp *Checkpoint) (int64, error) {
	if !validJobID(cp.JobID) {
		return 0, fmt.Errorf("invalid job id %q", cp.JobID)
	}
	cp.Version = CheckpointVersion
	cp.SpecHash = cp.Spec.Hash()
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	tmp := st.path(cp.JobID) + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, st.path(cp.JobID)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// The rename is durable only once the directory entry is on disk.
	if err := syncDir(st.dir); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// writeSynced writes data to a fresh file at path and fsyncs it before
// closing, so the bytes are on disk before any rename publishes them.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads and validates one checkpoint. A checkpoint is refused as
// stale when its format version is not this build's, when its recorded
// spec no longer hashes to its recorded spec_hash (an edited file or a
// drifted canonicalization), or when the file is torn (invalid JSON —
// impossible via Save's rename, but defended anyway).
func (st *Store) Load(jobID string) (*Checkpoint, error) {
	if !validJobID(jobID) {
		return nil, fmt.Errorf("invalid job id %q", jobID)
	}
	data, err := os.ReadFile(st.path(jobID))
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("checkpoint %s: torn or corrupt: %w", jobID, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint %s: stale format version %d (want %d)", jobID, cp.Version, CheckpointVersion)
	}
	if got := cp.Spec.Hash(); got != cp.SpecHash {
		return nil, fmt.Errorf("checkpoint %s: stale spec hash %.12s (recorded %.12s)", jobID, got, cp.SpecHash)
	}
	if cp.JobID != jobID {
		return nil, fmt.Errorf("checkpoint %s: names job %q", jobID, cp.JobID)
	}
	return &cp, nil
}

// List returns the job IDs with a committed checkpoint, sorted. Leftover
// .tmp files from a kill mid-write are ignored (and are never loaded).
func (st *Store) List() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if validJobID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}
