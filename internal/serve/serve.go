// Package serve is compassd's engine room: a verification job service
// that runs the litmus and library corpora as resumable, checkpointed
// jobs behind an HTTP API.
//
// A job is a workload name (litmus/SB, lib/msqueue, ...) plus a JobSpec.
// Exhaustive jobs shard the decision-prefix frontier across worker
// goroutines (machine.ExploreParallel) and pause every CheckpointEvery
// executions at a quiescent point: workers stop claiming prefixes,
// in-flight executions complete and are accounted, and the remaining
// frontier is the exact unexplored remainder. The checkpoint — format
// version, spec hash, engine state (pinned prefixes + partial report),
// and cumulative telemetry snapshot — is written atomically (temp file +
// rename), so a SIGKILL at any instant leaves either the previous or the
// new checkpoint intact, never a torn one. A restarted compassd resumes
// every unfinished job from its last checkpoint, on any worker count,
// and the final result is provably identical to an uninterrupted run's:
// executions are deterministic functions of their decision prefixes, so
// each decision-tree leaf is executed exactly once across the union of
// segments. Random-mode jobs checkpoint on the seed index instead — the
// i-th execution uses Seed+i regardless of segmentation — with the same
// identity.
//
// Telemetry streams in the compass/telemetry/v3 snapshot
// schema: one snapshot per completed segment on /jobs/{id}/events, each
// line independently valid against telemetry.ValidateSnapshotJSON.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"compass/internal/check"
	"compass/internal/litmus"
)

// Job modes.
const (
	ModeExhaustive = "exhaustive"
	ModeRandom     = "random"
)

// JobSpec is the client-facing description of one verification job. The
// zero value of every field selects a documented default, so `{"workload":
// "litmus/SB"}` is a complete submission.
type JobSpec struct {
	// Workload names the registered workload: "litmus/<test>" for the
	// litmus corpus or "lib/<name>" for the library refinement corpus
	// (see Workloads).
	Workload string `json:"workload"`
	// Mode is "exhaustive" (default) or "random". Litmus workloads are
	// exhaustive-only (their verdict is about the reachable-outcome set).
	Mode string `json:"mode,omitempty"`
	// MaxRuns bounds an exhaustive job across all its segments (0 = the
	// explorer default).
	MaxRuns int `json:"max_runs,omitempty"`
	// Executions is the random-mode sample count (0 = check default).
	Executions int `json:"executions,omitempty"`
	// Seed is the random-mode base seed; execution i uses Seed+i.
	Seed int64 `json:"seed,omitempty"`
	// Budget caps machine steps per execution (0 = 4000 for library
	// workloads, the corpus default; the check/machine default otherwise).
	Budget int `json:"budget,omitempty"`
	// StaleBias is the random-mode stale-read bias (0 = default 0.4).
	StaleBias float64 `json:"stale_bias,omitempty"`
	// POR selects the reduction for exhaustive jobs: "off", "sleep",
	// "source" ("" = off).
	POR string `json:"por,omitempty"`
	// Refine enables the refinement oracle on library workloads.
	Refine bool `json:"refine,omitempty"`
	// KeepGoing disables the early stop on library workloads.
	KeepGoing bool `json:"keep_going,omitempty"`
	// MaxFailures is the library early-stop threshold (0 = check default).
	MaxFailures int `json:"max_failures,omitempty"`
	// Dedup and DedupCap are still decoded so older clients keep
	// working, but state-space dedup was removed: Normalize zeroes both,
	// so they reach neither the spec hash, the checkpoint nor the job
	// view, and the HTTP API answers a request that sets them with a
	// Deprecation header.
	//
	// Deprecated: ignored; removed in v1.4.
	Dedup bool `json:"dedup,omitempty"`
	// Deprecated: ignored; removed in v1.4.
	DedupCap int `json:"dedup_cap,omitempty"`

	// Workers is the exploration worker count for this job (0 = the
	// server's default). Non-semantic: the result is identical for every
	// value, so it is excluded from the spec hash and a resumed job may
	// be re-sharded onto a different count.
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery is the number of executions per segment between
	// checkpoints (0 = server default). Non-semantic, like Workers.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Coordinator marks the job shardable across processes: after one
	// initial local segment splits the decision tree, the job's frontier
	// is leased in batches to peer compassd processes (compassd -join)
	// and only their returned deltas advance it. Non-semantic, like
	// Workers: every decision-tree leaf still executes exactly once
	// across the union of leases, so the final result is byte-identical
	// to a single-process run of the same spec.
	Coordinator bool `json:"coordinator,omitempty"`
	// LeaseTTLMillis is how long a granted lease stays valid without a
	// renewal before the coordinator reclaims its prefixes (0 = default
	// 10s). Non-semantic.
	LeaseTTLMillis int64 `json:"lease_ttl_millis,omitempty"`
	// LeasePrefixes is the maximum number of frontier prefixes granted
	// per lease (0 = default 8). Non-semantic.
	LeasePrefixes int `json:"lease_prefixes,omitempty"`
}

// Normalize validates the spec against the registry and fills mode
// defaults. It returns the workload so callers resolve it once.
func (s JobSpec) Normalize() (JobSpec, Workload, error) {
	w, ok := FindWorkload(s.Workload)
	if !ok {
		return s, w, fmt.Errorf("unknown workload %q", s.Workload)
	}
	if s.Mode == "" {
		s.Mode = ModeExhaustive
	}
	if s.Mode != ModeExhaustive && s.Mode != ModeRandom {
		return s, w, fmt.Errorf("unknown mode %q (want %q or %q)", s.Mode, ModeExhaustive, ModeRandom)
	}
	if w.Kind == KindLitmus && s.Mode != ModeExhaustive {
		return s, w, fmt.Errorf("litmus workload %s is exhaustive-only", s.Workload)
	}
	if _, err := check.ParsePORMode(porOrOff(s.POR)); err != nil {
		return s, w, fmt.Errorf("workload %s: %w", s.Workload, err)
	}
	if w.Kind == KindLib && s.Budget == 0 {
		s.Budget = 4000
	}
	s.Dedup, s.DedupCap = false, 0
	if s.Coordinator {
		if s.Mode != ModeExhaustive {
			return s, w, fmt.Errorf("workload %s: only exhaustive jobs shard across processes", s.Workload)
		}
		if s.MaxRuns != 0 {
			// A cross-process run bound cannot be enforced without making
			// which leaves execute depend on lease timing.
			return s, w, fmt.Errorf("workload %s: coordinator jobs do not support max_runs", s.Workload)
		}
	}
	return s, w, nil
}

// porOrOff maps the spec's empty POR string onto the parseable default.
func porOrOff(s string) string {
	if s == "" {
		return "off"
	}
	return s
}

// porMode parses a normalized spec's POR field (Normalize validated it).
func (s JobSpec) porMode() check.PORMode {
	m, _ := check.ParsePORMode(porOrOff(s.POR))
	return m
}

// Hash is the semantic identity of the job: the sha256 of the canonical
// spec JSON with the non-semantic scheduling knobs (Workers,
// CheckpointEvery, Coordinator, and the lease tuning) zeroed. A
// checkpoint is resumable exactly when its recorded hash matches its
// recorded spec — re-sharding is fine, a drifted workload definition or
// edited spec is refused as stale.
func (s JobSpec) Hash() string {
	s.Workers = 0
	s.CheckpointEvery = 0
	s.Coordinator = false
	s.LeaseTTLMillis = 0
	s.LeasePrefixes = 0
	data, _ := json.Marshal(s)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Workload kinds.
type Kind string

const (
	KindLitmus Kind = "litmus"
	KindLib    Kind = "lib"
)

// Workload is one registered verification target.
type Workload struct {
	Name string
	Kind Kind
	// Exactly one of the two is meaningful, per Kind.
	Litmus litmus.Test
	Lib    litmus.LibTest
}

// Workloads returns the registry: every litmus suite test as
// "litmus/<name>" and every library corpus entry under its own "lib/..."
// name.
func Workloads() []Workload {
	var out []Workload
	for _, t := range litmus.Suite() {
		out = append(out, Workload{Name: "litmus/" + t.Name, Kind: KindLitmus, Litmus: t})
	}
	for _, t := range litmus.LibrarySuite() {
		out = append(out, Workload{Name: t.Name, Kind: KindLib, Lib: t})
	}
	return out
}

// FindWorkload resolves a registry name.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// WorkloadNames lists the registry names in registry order.
func WorkloadNames() []string {
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	return names
}
