package litmus

import (
	"bytes"
	"reflect"
	"testing"

	"compass/internal/analysis/staticplan"
	"compass/internal/check"
	"compass/internal/telemetry"
)

// TestPlanEquivalence is the soundness gate for static access plans: for
// every suite test and every POR mode, exploration with the committed
// plan installed must produce the bit-identical outcome set, the
// identical verdict, and no more runs than exploration without it. Plans
// are may-over-approximations consulted only to *refute* conservative
// conflict verdicts and to *force* provably invisible steps, so any
// divergence here is a soundness bug, not a tuning regression.
func TestPlanEquivalence(t *testing.T) {
	tests := append(Suite(), LocalitySuite()...)
	for _, tc := range tests {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			plan := staticplan.PlanFor(tc.Name)
			if plan == nil {
				t.Fatalf("fixture has no plan for %s", tc.Name)
			}
			for _, mode := range []check.PORMode{check.POROff, check.PORSleep, check.PORSource} {
				bare := Run(tc, 0, WithWorkers(1), WithPORMode(mode))
				planned := Run(tc, 0, WithWorkers(1), WithPORMode(mode), WithPlan(plan))
				if !bare.Complete || !planned.Complete {
					t.Fatalf("%v: completeness diverged: bare=%v planned=%v", mode, bare.Complete, planned.Complete)
				}
				if got, want := outcomeKeySet(planned), outcomeKeySet(bare); !reflect.DeepEqual(got, want) {
					t.Errorf("%v: outcome sets diverged:\nwithout plan: %v\nwith plan:    %v", mode, want, got)
				}
				if bare.OK() != planned.OK() {
					t.Errorf("%v: verdict diverged: bare=%v planned=%v", mode, bare.OK(), planned.OK())
				}
				if planned.Runs > bare.Runs {
					t.Errorf("%v: plan increased runs: %d -> %d", mode, bare.Runs, planned.Runs)
				}
				if mode != check.PORSource && planned.Runs != bare.Runs {
					t.Errorf("%v: plan must be inert outside source-DPOR: %d -> %d", mode, bare.Runs, planned.Runs)
				}
			}
		})
	}
}

// TestPlanReductionBites pins the acceptance bar: under source-DPOR the
// static plan must strictly reduce executions on at least two
// multi-location tests, at identical outcome sets (checked exhaustively
// by TestPlanEquivalence above).
func TestPlanReductionBites(t *testing.T) {
	tests := append(Suite(), LocalitySuite()...)
	hits := 0
	for _, tc := range tests {
		plan := staticplan.PlanFor(tc.Name)
		bare := Run(tc, 0, WithWorkers(1), WithPORMode(check.PORSource))
		planned := Run(tc, 0, WithWorkers(1), WithPORMode(check.PORSource), WithPlan(plan))
		if planned.Runs < bare.Runs {
			hits++
			t.Logf("%s: %d -> %d executions (%.2fx)", tc.Name, bare.Runs, planned.Runs,
				float64(bare.Runs)/float64(planned.Runs))
		}
	}
	if hits < 2 {
		t.Fatalf("plan reduced executions on only %d tests under source-DPOR, want >= 2", hits)
	}
}

// TestPlanTelemetry asserts the counters the plan plumbing reports: the
// installed plan's site count, oracle consultations, and the validator
// invariant refuted <= checks.
func TestPlanTelemetry(t *testing.T) {
	var fpc Test
	for _, tc := range LocalitySuite() {
		if tc.Name == "FP-counters" {
			fpc = tc
			break
		}
	}
	if fpc.Name == "" {
		t.Fatal("FP-counters not in locality suite")
	}
	plan := staticplan.PlanFor(fpc.Name)
	stats := telemetry.New()
	Run(fpc, 0, WithWorkers(1), WithPORMode(check.PORSource), WithPlan(plan), WithStats(stats))
	snap := stats.Snapshot()
	if snap.Explore.PlanSites == 0 {
		t.Error("plan installed but plan_sites = 0")
	}
	if snap.Explore.PlanChecks == 0 {
		t.Error("source-DPOR never consulted the plan oracle")
	}
	if snap.Explore.PlanConflictsRefuted > snap.Explore.PlanChecks {
		t.Errorf("refuted (%d) > checks (%d)", snap.Explore.PlanConflictsRefuted, snap.Explore.PlanChecks)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteSnapshotJSON(&buf, snap); err != nil {
		t.Fatalf("writing snapshot: %v", err)
	}
	if err := telemetry.ValidateSnapshotJSON(buf.Bytes()); err != nil {
		t.Errorf("snapshot with plan counters fails validation: %v", err)
	}
}

// TestLibraryPlanEquivalence runs the library refinement corpus under
// source-DPOR with and without the committed (⊤) plans: the golden
// verdict line must be identical and the plan must not add runs. ⊤ plans
// still refute the conservative alloc/free dependence verdicts, which is
// where library workloads (node allocations on every push) win.
func TestLibraryPlanEquivalence(t *testing.T) {
	for _, lt := range LibrarySuite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			plan := staticplan.PlanFor(lt.Name)
			if plan == nil {
				t.Fatalf("fixture has no plan for %s", lt.Name)
			}
			bare := RunLib(lt, 0, WithWorkers(1), WithPORMode(check.PORSource))
			planned := RunLib(lt, 0, WithWorkers(1), WithPORMode(check.PORSource), WithPlan(plan))
			if bare.GoldenLine() != planned.GoldenLine() {
				t.Errorf("golden verdict diverged:\nwithout plan: %s\nwith plan:    %s",
					bare.GoldenLine(), planned.GoldenLine())
			}
			if planned.Runs > bare.Runs {
				t.Errorf("plan increased runs: %d -> %d", bare.Runs, planned.Runs)
			}
			if planned.Runs < bare.Runs {
				t.Logf("%s: %d -> %d executions", lt.Name, bare.Runs, planned.Runs)
			}
		})
	}
}
