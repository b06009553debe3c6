package litmus

import (
	"encoding/json"
	"reflect"
	"testing"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/telemetry"
)

// TestDedupEquivalence is the golden soundness gate for state-space
// deduplication, modeled on TestPOREquivalence: for every litmus test in
// the suite plus the locality workloads, in every POR mode,
// exhaustive exploration with a dedup visited set must produce the
// identical outcome set — and therefore the identical verdict — as
// exploration without one, while never exploring more runs. Evictions
// must not fire at these sizes (they would make run counts
// order-dependent).
func TestDedupEquivalence(t *testing.T) {
	tests := append(Suite(), LocalitySuite()...)
	for _, tc := range tests {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []check.PORMode{check.POROff, check.PORSleep, check.PORSource} {
				plain := Run(tc, 0, WithWorkers(1), WithPORMode(mode))
				stats := telemetry.New()
				ded := Run(tc, 0, WithWorkers(1), WithPORMode(mode),
					WithDedup(machine.NewDedup(0)), WithStats(stats))
				if !plain.Complete || !ded.Complete {
					t.Fatalf("completeness diverged under %v: plain=%v dedup=%v", mode, plain.Complete, ded.Complete)
				}
				if got, want := outcomeKeySet(ded), outcomeKeySet(plain); !reflect.DeepEqual(got, want) {
					t.Errorf("outcome sets diverged under %v:\nwithout dedup: %v\nwith dedup:    %v", mode, want, got)
				}
				if plain.OK() != ded.OK() {
					t.Errorf("verdict diverged under %v: plain=%v dedup=%v", mode, plain.OK(), ded.OK())
				}
				if ded.Runs > plain.Runs {
					t.Errorf("dedup explored more runs (%d) than plain exploration (%d) under %v",
						ded.Runs, plain.Runs, mode)
				}
				if ev := stats.Explore.DedupEvictions.Load(); ev != 0 {
					t.Errorf("dedup evicted %d entries under %v; corpus must fit the default cap", ev, mode)
				}
			}
		})
	}
}

// TestLibraryDedupEquivalence extends the gate to the library refinement
// corpus under source-DPOR (the mode the golden corpus and the service
// default to): the cross-oracle verdict must be identical with and
// without dedup, with no more runs.
func TestLibraryDedupEquivalence(t *testing.T) {
	for _, lt := range LibrarySuite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			bare := RunLib(lt, 0, WithWorkers(1), WithPORMode(check.PORSource))
			ded := RunLib(lt, 0, WithWorkers(1), WithPORMode(check.PORSource),
				WithDedup(machine.NewDedup(0)))
			if got, want := ded.GoldenLine(), bare.GoldenLine(); got != want {
				t.Errorf("verdict diverged:\nwithout dedup: %s\nwith dedup:    %s", want, got)
			}
			if bare.OK() != ded.OK() {
				t.Errorf("OK diverged: bare=%v dedup=%v", bare.OK(), ded.OK())
			}
			if ded.Runs > bare.Runs {
				t.Errorf("dedup explored more runs (%d) than bare exploration (%d)", ded.Runs, bare.Runs)
			}
		})
	}
}

// TestDedupReductionBites pins the acceptance bar: dedup must actually
// shrink exploration somewhere on the core suite, or the mechanism is
// dead weight.
func TestDedupReductionBites(t *testing.T) {
	hits := 0
	for _, tc := range Suite() {
		plain := Run(tc, 0, WithWorkers(1))
		ded := Run(tc, 0, WithWorkers(1), WithDedup(machine.NewDedup(0)))
		if !reflect.DeepEqual(outcomeKeySet(plain), outcomeKeySet(ded)) {
			t.Fatalf("%s: outcome sets diverged", tc.Name)
		}
		if ded.Runs < plain.Runs {
			hits++
			t.Logf("%s: %d -> %d executions (%.1fx)", tc.Name, plain.Runs, ded.Runs,
				float64(plain.Runs)/float64(ded.Runs))
		}
	}
	if hits < 3 {
		t.Fatalf("only %d suite tests shrank under dedup, want >= 3", hits)
	}
}

// TestJobDedupResume: a litmus job whose JobState — frontier AND dedup
// visited set — round-trips through JSON between segments must finish
// with the same run count and outcome set as an uninterrupted dedup run.
// This is the property serve checkpoints of dedup jobs depend on.
func TestJobDedupResume(t *testing.T) {
	var tc Test
	for _, c := range Suite() {
		if c.Name == "SB" {
			tc = c
			break
		}
	}
	if tc.Name == "" {
		t.Fatal("SB not in suite")
	}
	whole := NewJob()
	whole.RunSegment(tc, 0, 0, WithWorkers(1), WithDedup(machine.NewDedup(0)))
	un := whole.Finish(tc)

	s := NewJob()
	s.Dedup = machine.NewDedup(0)
	for {
		done := s.RunSegment(tc, 0, 3, WithWorkers(1))
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		restored := &JobState{}
		if err := json.Unmarshal(blob, restored); err != nil {
			t.Fatal(err)
		}
		s = restored
		if done {
			break
		}
	}
	seg := s.Finish(tc)
	if seg.Runs != un.Runs {
		t.Fatalf("segmented runs %d != uninterrupted %d", seg.Runs, un.Runs)
	}
	if got, want := outcomeKeySet(seg), outcomeKeySet(un); !reflect.DeepEqual(got, want) {
		t.Fatalf("outcome sets diverged:\nsegmented:     %v\nuninterrupted: %v", got, want)
	}
	if seg.OK() != un.OK() {
		t.Fatalf("verdict diverged: segmented=%v uninterrupted=%v", seg.OK(), un.OK())
	}
}
