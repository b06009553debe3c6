package serve

import (
	"encoding/json"
	"errors"
	"fmt"

	"compass/internal/check"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/spec"
	"compass/internal/telemetry"
)

// engine is one job's resumable execution strategy. Segment runs up to
// pauseRuns more executions and reports whether the job is finished;
// state/restore round-trip the engine through checkpoint bytes; result
// renders the client-facing summary (partial until done).
type engine interface {
	segment(pauseRuns int) (done bool, err error)
	state() (json.RawMessage, error)
	result() *JobResult
	runs() int
}

// sharder is implemented by engines whose exhaustive frontier can be
// leased to peer processes (litmus and exhaustive library engines; the
// random engine has no frontier). takeFrontier removes the engine's
// pending prefixes — after it the engine must not run local segments
// until finishShard declares the leased exploration complete; mergeDelta
// folds one returned lease delta (an engine state accumulated from a
// fresh start over the leased frontier) into the totals and returns the
// peer's unexplored leftover, if any.
type sharder interface {
	takeFrontier() *machine.Frontier
	mergeDelta(delta json.RawMessage) (leftover *machine.Frontier, err error)
	finishShard()
}

// JobResult is the client-facing outcome of a job: common verdict fields
// plus the kind-specific detail (litmus outcome histogram or library
// report).
type JobResult struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Runs     int    `json:"runs"`
	// Complete marks a finished exhaustive enumeration (a proof for the
	// bounded instance); random jobs are never Complete.
	Complete bool `json:"complete"`
	Passed   bool `json:"passed"`
	// Litmus detail.
	Outcomes        map[string]int `json:"outcomes,omitempty"`
	ForbiddenSeen   []string       `json:"forbidden_seen,omitempty"`
	RequiredMissing []string       `json:"required_missing,omitempty"`
	// Library detail.
	Report *ReportState `json:"report,omitempty"`
}

// ReportState is the JSON projection of a check.Report that checkpoints
// and job results carry. It round-trips everything the resume invariant
// promises: counts, completeness, and the failure list (errors flattened
// to strings).
type ReportState struct {
	Executions int            `json:"executions"`
	OK         int            `json:"ok"`
	Discarded  int            `json:"discarded"`
	Unknown    int            `json:"unknown"`
	Steps      int            `json:"steps"`
	Complete   bool           `json:"complete"`
	Failures   []FailureState `json:"failures,omitempty"`
}

// FailureState is the serializable form of a check.Failure.
type FailureState struct {
	Seed       int64            `json:"seed"`
	Status     int              `json:"status"`
	Err        string           `json:"err,omitempty"`
	Violations []spec.Violation `json:"violations,omitempty"`
}

// projectReport flattens a live report into its checkpoint form.
func projectReport(rep *check.Report) *ReportState {
	st := &ReportState{
		Executions: rep.Executions,
		OK:         rep.OK,
		Discarded:  rep.Discarded,
		Unknown:    rep.Unknown,
		Steps:      rep.Steps,
		Complete:   rep.Complete,
	}
	for _, f := range rep.Failures {
		fs := FailureState{Seed: f.Seed, Status: int(f.Status), Violations: f.Violations}
		if f.Err != nil {
			fs.Err = f.Err.Error()
		}
		st.Failures = append(st.Failures, fs)
	}
	return st
}

// restoreReport rebuilds a live report from its checkpoint form.
func restoreReport(name string, st *ReportState) *check.Report {
	rep := &check.Report{
		Name:       name,
		Executions: st.Executions,
		OK:         st.OK,
		Discarded:  st.Discarded,
		Unknown:    st.Unknown,
		Steps:      st.Steps,
		Complete:   st.Complete,
	}
	for _, f := range st.Failures {
		cf := check.Failure{Seed: f.Seed, Status: machine.Status(f.Status), Violations: f.Violations}
		if f.Err != "" {
			cf.Err = errors.New(f.Err)
		}
		rep.Failures = append(rep.Failures, cf)
	}
	return rep
}

// newEngine builds a fresh engine for a normalized spec, or rebuilds one
// from checkpointed state bytes when state is non-nil.
func newEngine(sp JobSpec, w Workload, stats *telemetry.Stats, state json.RawMessage) (engine, error) {
	switch {
	case w.Kind == KindLitmus:
		e := &litmusEngine{spec: sp, test: w.Litmus, stats: stats, job: litmus.NewJob()}
		if state != nil {
			e.job = &litmus.JobState{}
			if err := json.Unmarshal(state, e.job); err != nil {
				return nil, fmt.Errorf("litmus state: %w", err)
			}
		}
		return e, nil
	case sp.Mode == ModeRandom:
		e := &randomEngine{spec: sp, test: w.Lib, stats: stats, rep: &ReportState{}}
		if state != nil {
			if err := json.Unmarshal(state, &e.rep); err != nil {
				return nil, fmt.Errorf("random state: %w", err)
			}
		}
		return e, nil
	default:
		e := &exhaustEngine{spec: sp, test: w.Lib, stats: stats, job: check.NewExhaustJob(w.Name)}
		if state != nil {
			var st exhaustState
			if err := json.Unmarshal(state, &st); err != nil {
				return nil, fmt.Errorf("exhaustive state: %w", err)
			}
			e.job = check.ResumeExhaustJob(restoreReport(w.Name, st.Report), st.Frontier)
			e.job.Done = st.Done
		}
		return e, nil
	}
}

// leaseEngineState renders the engine state a peer starts a leased
// segment from: an empty report/histogram plus the leased frontier, so
// the peer's accumulated state IS the delta the coordinator merges.
func leaseEngineState(w Workload, f *machine.Frontier) (json.RawMessage, error) {
	if w.Kind == KindLitmus {
		return json.Marshal(&litmus.JobState{Outcomes: map[string]int{}, Frontier: f})
	}
	return json.Marshal(&exhaustState{Report: &ReportState{}, Frontier: f})
}

// litmusEngine drives one litmus test through litmus.JobState.
type litmusEngine struct {
	spec  JobSpec
	test  litmus.Test
	stats *telemetry.Stats
	job   *litmus.JobState
}

func (e *litmusEngine) segment(pauseRuns int) (bool, error) {
	done := e.job.RunSegment(e.test, e.spec.MaxRuns, pauseRuns,
		litmus.WithWorkers(e.spec.Workers),
		litmus.WithStats(e.stats),
		litmus.WithPORMode(e.spec.porMode()))
	return done, nil
}

func (e *litmusEngine) state() (json.RawMessage, error) { return json.Marshal(e.job) }

func (e *litmusEngine) runs() int { return e.job.Runs }

func (e *litmusEngine) result() *JobResult {
	res := e.job.Finish(e.test)
	return &JobResult{
		Workload:        "litmus/" + e.test.Name,
		Mode:            ModeExhaustive,
		Runs:            res.Runs,
		Complete:        res.Complete,
		Passed:          res.OK(),
		Outcomes:        res.Outcomes,
		ForbiddenSeen:   res.ForbiddenSeen,
		RequiredMissing: res.RequiredMissing,
	}
}

func (e *litmusEngine) takeFrontier() *machine.Frontier {
	f := e.job.Frontier
	e.job.Frontier = nil
	return f
}

func (e *litmusEngine) mergeDelta(delta json.RawMessage) (*machine.Frontier, error) {
	var d litmus.JobState
	if err := json.Unmarshal(delta, &d); err != nil {
		return nil, fmt.Errorf("litmus lease delta: %w", err)
	}
	e.job.Runs += d.Runs
	e.job.Discarded += d.Discarded
	if e.job.Outcomes == nil {
		e.job.Outcomes = map[string]int{}
	}
	for k, n := range d.Outcomes {
		e.job.Outcomes[k] += n
	}
	return d.Frontier, nil
}

func (e *litmusEngine) finishShard() {
	e.job.Complete = true
	e.job.Done = true
}

// exhaustState is the checkpoint form of an exhaustEngine.
type exhaustState struct {
	Report   *ReportState      `json:"report"`
	Frontier *machine.Frontier `json:"frontier,omitempty"`
	Done     bool              `json:"done"`
}

// exhaustEngine drives one library workload exhaustively through
// check.ExhaustJob.
type exhaustEngine struct {
	spec  JobSpec
	test  litmus.LibTest
	stats *telemetry.Stats
	job   *check.ExhaustJob
}

func (e *exhaustEngine) options() check.Options {
	return check.Options{
		Mode:        check.ModeExhaustive,
		MaxRuns:     e.spec.MaxRuns,
		Budget:      e.spec.Budget,
		Refine:      e.spec.Refine,
		KeepGoing:   e.spec.KeepGoing,
		MaxFailures: e.spec.MaxFailures,
		Workers:     e.spec.Workers,
		POR:         e.spec.porMode(),
		Stats:       e.stats,
	}
}

func (e *exhaustEngine) segment(pauseRuns int) (bool, error) {
	return e.job.RunSegment(e.test.Build, e.options(), pauseRuns), nil
}

func (e *exhaustEngine) state() (json.RawMessage, error) {
	return json.Marshal(exhaustState{
		Report:   projectReport(e.job.Report),
		Frontier: e.job.Frontier,
		Done:     e.job.Done,
	})
}

func (e *exhaustEngine) runs() int { return e.job.Report.Executions }

func (e *exhaustEngine) takeFrontier() *machine.Frontier {
	f := e.job.Frontier
	e.job.Frontier = nil
	return f
}

func (e *exhaustEngine) mergeDelta(delta json.RawMessage) (*machine.Frontier, error) {
	var st exhaustState
	if err := json.Unmarshal(delta, &st); err != nil {
		return nil, fmt.Errorf("exhaustive lease delta: %w", err)
	}
	if st.Report == nil {
		return nil, errors.New("exhaustive lease delta: missing report")
	}
	rep := e.job.Report
	rep.Executions += st.Report.Executions
	rep.OK += st.Report.OK
	rep.Discarded += st.Report.Discarded
	rep.Unknown += st.Report.Unknown
	rep.Steps += st.Report.Steps
	for _, f := range st.Report.Failures {
		cf := check.Failure{Seed: f.Seed, Status: machine.Status(f.Status), Violations: f.Violations}
		if f.Err != "" {
			cf.Err = errors.New(f.Err)
		}
		rep.Failures = append(rep.Failures, cf)
	}
	return st.Frontier, nil
}

func (e *exhaustEngine) finishShard() {
	e.job.Report.Complete = true
	e.job.Done = true
}

func (e *exhaustEngine) result() *JobResult {
	rep := e.job.Report
	return &JobResult{
		Workload: e.test.Name,
		Mode:     ModeExhaustive,
		Runs:     rep.Executions,
		Complete: rep.Complete,
		Passed:   rep.Passed(),
		Report:   projectReport(rep),
	}
}

// randomEngine drives one library workload through seeded-random
// segments. Execution i always uses Seed+i, so segmentation never
// changes which executions run: each segment picks up at the next seed
// index and the merged report equals an uninterrupted run's, including
// the early-stop point (MaxFailures counts failures across the whole
// job).
type randomEngine struct {
	spec  JobSpec
	test  litmus.LibTest
	stats *telemetry.Stats
	rep   *ReportState
}

func (e *randomEngine) segment(pauseRuns int) (bool, error) {
	// Resolve the job-level defaults once per segment; the per-segment
	// options below are derived from these so segmentation is invisible.
	execs := e.spec.Executions
	if execs == 0 {
		execs = check.DefaultExecutions
	}
	maxFail := e.spec.MaxFailures
	if maxFail == 0 {
		maxFail = check.DefaultMaxFails
	}
	seed := check.NormalizeSeed(e.spec.Seed, check.DefaultSeed)
	if !e.spec.KeepGoing && len(e.rep.Failures) >= maxFail {
		return true, nil
	}
	remaining := execs - e.rep.Executions
	if remaining <= 0 {
		return true, nil
	}
	chunk := remaining
	if pauseRuns > 0 && pauseRuns < chunk {
		chunk = pauseRuns
	}
	segSeed := seed + int64(e.rep.Executions)
	if segSeed == 0 {
		segSeed = check.SeedZero
	}
	rep := check.Run(e.test.Name, e.test.Build, check.Options{
		Executions: chunk,
		Seed:       segSeed,
		Budget:     e.spec.Budget,
		StaleBias:  e.spec.StaleBias,
		Refine:     e.spec.Refine,
		KeepGoing:  e.spec.KeepGoing,
		// The failure budget spans the job: failures already
		// checkpointed count against this segment's early stop.
		MaxFailures: maxFail - len(e.rep.Failures),
		Workers:     e.spec.Workers,
		Stats:       e.stats,
	})
	seg := projectReport(rep)
	e.rep.Executions += seg.Executions
	e.rep.OK += seg.OK
	e.rep.Discarded += seg.Discarded
	e.rep.Unknown += seg.Unknown
	e.rep.Steps += seg.Steps
	e.rep.Failures = append(e.rep.Failures, seg.Failures...)
	if !e.spec.KeepGoing && len(e.rep.Failures) >= maxFail {
		return true, nil
	}
	return e.rep.Executions >= execs, nil
}

func (e *randomEngine) state() (json.RawMessage, error) { return json.Marshal(e.rep) }

func (e *randomEngine) runs() int { return e.rep.Executions }

func (e *randomEngine) result() *JobResult {
	return &JobResult{
		Workload: e.test.Name,
		Mode:     ModeRandom,
		Runs:     e.rep.Executions,
		Passed:   len(e.rep.Failures) == 0,
		Report:   e.rep,
	}
}
