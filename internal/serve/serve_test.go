package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compass/internal/telemetry"
)

// baseline runs a spec to completion on an in-memory manager (no state
// dir, nothing to resume) and returns the terminal view.
func baseline(t *testing.T, spec JobSpec, workers int) JobView {
	t.Helper()
	m, err := NewManager(Config{Workers: workers})
	if err != nil {
		t.Fatalf("baseline manager: %v", err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	m.Wait()
	return j.View()
}

// runSegmented runs a spec through repeated kill/resume cycles: submit on
// one manager that pauses after one segment (startPaused makes the kill
// point a deterministic segment boundary), then resume on a fresh manager
// (rotating the worker count) that also runs exactly one segment, until
// the job finishes. The job crosses managers once per segment.
func runSegmented(t *testing.T, dir string, spec JobSpec, every int, workerRotation []int) (JobView, int) {
	t.Helper()
	m, err := NewManager(Config{StateDir: dir, Workers: workerRotation[0], CheckpointEvery: every})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	m.startPaused = true
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := j.ID
	m.Shutdown()
	if v := j.View(); v.Status == StatusDone || v.Status == StatusFailed {
		return v, 1
	}
	for cycle := 1; ; cycle++ {
		if cycle > 10000 {
			t.Fatalf("job %s made no progress after %d cycles", id, cycle)
		}
		workers := workerRotation[cycle%len(workerRotation)]
		m, err := NewManager(Config{StateDir: dir, Workers: workers, CheckpointEvery: every})
		if err != nil {
			t.Fatalf("cycle %d manager: %v", cycle, err)
		}
		m.startPaused = true
		resumed, finished, errs := m.Resume()
		if len(errs) > 0 {
			t.Fatalf("cycle %d resume errors: %v", cycle, errs)
		}
		if resumed+finished != 1 {
			t.Fatalf("cycle %d: resumed %d finished %d jobs, want 1 total", cycle, resumed, finished)
		}
		rj, ok := m.Job(id)
		if !ok {
			t.Fatalf("cycle %d: job %s not found after resume", cycle, id)
		}
		if finished == 1 {
			return rj.View(), cycle
		}
		m.Shutdown()
		v := rj.View()
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v, cycle
		}
	}
}

func resultJSON(t *testing.T, v JobView) string {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s: terminal view has no result (status %s, err %q)", v.ID, v.Status, v.Error)
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(data)
}

// TestKillResumeLitmusMatrix is the resume-invariant matrix: a litmus job
// killed at every segment boundary and resumed on alternating worker
// counts must produce the byte-identical outcome histogram, run count,
// and Complete verdict of an uninterrupted run — under each POR mode.
func TestKillResumeLitmusMatrix(t *testing.T) {
	for _, por := range []string{"off", "sleep", "source"} {
		por := por
		t.Run(por, func(t *testing.T) {
			t.Parallel()
			spec := JobSpec{Workload: "litmus/SB", POR: por}
			want := baseline(t, spec, 2)
			// Source DPOR prunes SB to a handful of runs; shrink the
			// segment so even the reduced tree spans several resumes.
			every := 5
			if por == "source" {
				every = 1
			}
			got, cycles := runSegmented(t, t.TempDir(), spec, every, []int{1, 4})
			if cycles < 3 {
				t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
			}
			if got.Status != StatusDone {
				t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
				t.Errorf("segmented result diverged from uninterrupted run\n got: %s\nwant: %s", g, w)
			}
			if !got.Result.Complete {
				t.Errorf("segmented run not Complete")
			}
			if got.Runs != want.Runs {
				t.Errorf("runs = %d, want %d", got.Runs, want.Runs)
			}
		})
	}
}

// TestKillResumeExhaustiveLib runs a library workload exhaustively with
// the refinement oracle across kill/resume cycles and checks the full
// report (counts, completeness, failures) matches an uninterrupted run.
// The job must run to a Complete enumeration: a MaxRuns-truncated
// exhaustive run explores an order-dependent subset of the tree, so
// only the full leaf set is comparable across worker counts.
func TestKillResumeExhaustiveLib(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Workload: "lib/msqueue", Mode: ModeExhaustive, POR: "source", Refine: true}
	want := baseline(t, spec, 2)
	got, cycles := runSegmented(t, t.TempDir(), spec, 500, []int{1, 4})
	if cycles < 3 {
		t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
	}
	if got.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
		t.Errorf("segmented result diverged from uninterrupted run\n got: %s\nwant: %s", g, w)
	}
	if !got.Result.Complete {
		t.Error("exhaustive lib job did not reach a Complete enumeration")
	}
}

// TestKillResumeRandomLib checks the random-mode identity: execution i
// always uses Seed+i, so a job segmented across kills samples exactly the
// same executions as an uninterrupted one.
func TestKillResumeRandomLib(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Workload: "lib/msqueue", Mode: ModeRandom, Executions: 40, Seed: 7}
	want := baseline(t, spec, 2)
	got, cycles := runSegmented(t, t.TempDir(), spec, 6, []int{1, 4})
	if cycles < 3 {
		t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
	}
	if got.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
		t.Errorf("segmented result diverged from uninterrupted run\n got: %s\nwant: %s", g, w)
	}
	if got.Runs != 40 {
		t.Errorf("runs = %d, want 40", got.Runs)
	}
}

// TestResumeTelemetryContinuity: the resumed job's telemetry continues
// the writer's monotone stream — the final checkpoint's cumulative
// counters equal an uninterrupted run's, not just the final segment's.
func TestResumeTelemetryContinuity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := JobSpec{Workload: "litmus/SB", POR: "sleep"}

	mBase, err := NewManager(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jBase, err := mBase.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	mBase.Wait()
	base := jBase.stats.Snapshot()

	got, _ := runSegmented(t, dir, spec, 5, []int{1, 4})
	if got.Status != StatusDone {
		t.Fatalf("status %s, want done", got.Status)
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.Load(got.ID)
	if err != nil {
		t.Fatalf("load final checkpoint: %v", err)
	}
	if cp.Telemetry == nil {
		t.Fatal("final checkpoint has no telemetry snapshot")
	}
	if cp.Telemetry.Machine.Execs != base.Machine.Execs {
		t.Errorf("telemetry execs %d != uninterrupted %d: stream did not survive resume",
			cp.Telemetry.Machine.Execs, base.Machine.Execs)
	}
	if cp.Telemetry.Machine.Steps != base.Machine.Steps {
		t.Errorf("telemetry steps %d != uninterrupted %d", cp.Telemetry.Machine.Steps, base.Machine.Steps)
	}
	data, err := json.Marshal(cp.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateSnapshotJSON(data); err != nil {
		t.Errorf("final snapshot invalid: %v (%s)", err, data)
	}
}

// TestStoreRefusesStaleAndTorn covers every refusal path of the
// checkpoint store: format-version drift, a tampered spec, torn JSON,
// and leftover temp files from a kill mid-write.
func TestStoreRefusesStaleAndTorn(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := JobSpec{Workload: "litmus/SB"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{JobID: "job-a", Spec: spec, Runs: 3, Engine: json.RawMessage(`{"runs":3,"outcomes":{}}`)}
	if _, err := st.Save(cp); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := st.Load("job-a"); err != nil {
		t.Fatalf("load freshly saved: %v", err)
	}

	tamper := func(name string, mutate func(map[string]interface{})) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "job-a.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]interface{}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Version drift.
	tamper("job-version", func(m map[string]interface{}) {
		m["version"] = CheckpointVersion + 1
		m["job_id"] = "job-version"
	})
	if _, err := st.Load("job-version"); err == nil || !strings.Contains(err.Error(), "stale format version") {
		t.Errorf("version drift: err = %v, want stale format version", err)
	}

	// Tampered spec: recorded hash no longer matches.
	tamper("job-spec", func(m map[string]interface{}) {
		m["job_id"] = "job-spec"
		sp := m["spec"].(map[string]interface{})
		sp["workload"] = "litmus/LB"
	})
	if _, err := st.Load("job-spec"); err == nil || !strings.Contains(err.Error(), "stale spec hash") {
		t.Errorf("tampered spec: err = %v, want stale spec hash", err)
	}

	// Torn file: truncated JSON.
	data, err := os.ReadFile(filepath.Join(dir, "job-a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-torn.json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("job-torn"); err == nil || !strings.Contains(err.Error(), "torn or corrupt") {
		t.Errorf("torn file: err = %v, want torn or corrupt", err)
	}

	// A kill mid-write leaves only a .tmp file; List must ignore it.
	if err := os.WriteFile(filepath.Join(dir, "job-midwrite.json.tmp"), data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if strings.Contains(id, "midwrite") {
			t.Errorf("List surfaced temp file: %v", ids)
		}
	}

	// Resume must skip (and report) every bad checkpoint without
	// touching the good one.
	m, err := NewManager(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed, finished, errs := m.Resume()
	if resumed != 1 || finished != 0 {
		t.Errorf("resumed %d finished %d, want 1/0", resumed, finished)
	}
	if len(errs) != 3 {
		t.Errorf("resume reported %d errors, want 3 (version, spec, torn): %v", len(errs), errs)
	}
	m.Wait()
	j, ok := m.Job("job-a")
	if !ok {
		t.Fatal("good checkpoint not resumed")
	}
	if v := j.View(); v.Status != StatusDone {
		t.Errorf("resumed job status %s (err %q), want done", v.Status, v.Error)
	}
}

// TestResumeRefusesPreviousGeneration pins the one-diagnostic policy for
// checkpoints of earlier format generations. testdata/v1_checkpoint.json
// is a paused litmus/IRIW job written by a version-1 compassd; its
// embedded compass/telemetry/v1 snapshot carries machine counters the
// current snapshot type no longer has. testdata/v2_checkpoint.json is a
// paused litmus/SB job submitted with "dedup": true to a version-2
// compassd, carrying the dedup visited set in its engine state. Resume
// must refuse each through the version check alone: one stale-version
// error, nothing resumed or finished.
func TestResumeRefusesPreviousGeneration(t *testing.T) {
	t.Parallel()
	for _, gen := range []int{1, 2} {
		data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("v%d_checkpoint.json", gen)))
		if err != nil {
			t.Fatal(err)
		}
		var head struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, head.JobID+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(Config{StateDir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		resumed, finished, errs := m.Resume()
		m.Wait()
		if resumed != 0 || finished != 0 {
			t.Errorf("v%d: resumed %d finished %d, want 0/0", gen, resumed, finished)
		}
		if len(errs) != 1 {
			t.Fatalf("v%d: resume reported %d errors, want exactly 1: %v", gen, len(errs), errs)
		}
		want := fmt.Sprintf("stale format version %d (want %d)", gen, CheckpointVersion)
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("v%d: err = %v, want %q", gen, errs[0], want)
		}
	}
}

// TestSaveFailureLeavesNoTemp: a Save whose rename fails (a directory
// sits at the target path) reports the error, leaves no .tmp file behind,
// and leaves the checkpoints already committed to the store loadable.
func TestSaveFailureLeavesNoTemp(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := JobSpec{Workload: "litmus/SB"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	engine := json.RawMessage(`{"runs":3,"outcomes":{}}`)
	if _, err := st.Save(&Checkpoint{JobID: "job-a", Spec: spec, Runs: 3, Engine: engine}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := os.Mkdir(filepath.Join(dir, "job-b.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(&Checkpoint{JobID: "job-b", Spec: spec, Runs: 3, Engine: engine}); err == nil {
		t.Fatal("save over a directory succeeded, want a rename error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("failed save left %s behind", e.Name())
		}
	}
	cp, err := st.Load("job-a")
	if err != nil {
		t.Fatalf("previous checkpoint no longer loads: %v", err)
	}
	if cp.Runs != 3 {
		t.Errorf("previous checkpoint runs = %d, want 3", cp.Runs)
	}
}

// TestSubmitValidation exercises spec normalization failures.
func TestSubmitValidation(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []JobSpec{
		{Workload: "no/such"},
		{Workload: "litmus/SB", Mode: "random"},
		{Workload: "litmus/SB", Mode: "banana"},
		{Workload: "lib/msqueue", POR: "banana"},
	}
	for _, sp := range cases {
		if _, err := m.Submit(sp); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", sp)
		}
	}
}

// TestWorkloadRegistry sanity-checks the registry the daemon exposes.
func TestWorkloadRegistry(t *testing.T) {
	t.Parallel()
	names := WorkloadNames()
	if len(names) == 0 {
		t.Fatal("empty workload registry")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %q", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "litmus/") && !strings.HasPrefix(n, "lib/") {
			t.Errorf("workload %q outside litmus// lib/ namespaces", n)
		}
	}
	for _, want := range []string{"litmus/SB", "litmus/IRIW", "lib/msqueue", "lib/lock"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

// TestSpecHashIgnoresScheduling: worker count and segment size are
// non-semantic, so re-sharding must not invalidate a checkpoint.
func TestSpecHashIgnoresScheduling(t *testing.T) {
	t.Parallel()
	a := JobSpec{Workload: "litmus/SB", POR: "sleep", Workers: 1, CheckpointEvery: 10}
	b := JobSpec{Workload: "litmus/SB", POR: "sleep", Workers: 8, CheckpointEvery: 999}
	if a.Hash() != b.Hash() {
		t.Error("hash depends on scheduling knobs")
	}
	c := JobSpec{Workload: "litmus/SB", POR: "source"}
	if a.Hash() == c.Hash() {
		t.Error("hash ignores semantic field POR")
	}
	// Sharding knobs are scheduling too: a checkpoint taken by a
	// coordinator must resume under different lease sizing or none.
	d := JobSpec{Workload: "litmus/SB", POR: "sleep",
		Coordinator: true, LeaseTTLMillis: 5000, LeasePrefixes: 4}
	if a.Hash() != d.Hash() {
		t.Error("hash depends on sharding knobs")
	}
	// The deprecated dedup fields are dropped by Normalize, so they never
	// reach the hash.
	e, _, err := JobSpec{Workload: "litmus/SB", POR: "sleep", Dedup: true, DedupCap: 64}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	na, _, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if e.Dedup || e.DedupCap != 0 || na.Hash() != e.Hash() {
		t.Errorf("normalized spec %+v keeps the deprecated dedup fields", e)
	}
}
