package litmus

import (
	"reflect"
	"sort"
	"testing"

	"compass/internal/check"
)

// outcomeKeySet returns the sorted set of distinct outcome keys observed
// by a result — the invariant POR preserves. (The histogram counts are
// NOT preserved: POR's whole point is visiting fewer representatives of
// each equivalence class.)
func outcomeKeySet(r *Result) []string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPOREquivalence is the soundness gate for partial-order reduction:
// for every litmus test in the suite plus the locality workloads,
// exhaustive exploration under sleep sets and under source-DPOR must each
// produce the identical outcome *set* — and therefore the identical
// verdict — as exploration without reduction, with no more runs; and
// source-DPOR must explore no more runs than sleep sets.
func TestPOREquivalence(t *testing.T) {
	tests := append(Suite(), LocalitySuite()...)
	for _, tc := range tests {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			plain := Run(tc, 0, WithWorkers(1))
			runs := map[check.PORMode]int{}
			for _, mode := range []check.PORMode{check.PORSleep, check.PORSource} {
				reduced := Run(tc, 0, WithWorkers(1), WithPORMode(mode))
				if !plain.Complete || !reduced.Complete {
					t.Fatalf("completeness diverged or lost under %v: plain=%v por=%v", mode, plain.Complete, reduced.Complete)
				}
				if got, want := outcomeKeySet(reduced), outcomeKeySet(plain); !reflect.DeepEqual(got, want) {
					t.Errorf("outcome sets diverged under %v:\nwithout POR: %v\nwith POR:    %v", mode, want, got)
				}
				if plain.OK() != reduced.OK() {
					t.Errorf("verdict diverged under %v: plain=%v por=%v", mode, plain.OK(), reduced.OK())
				}
				if reduced.Runs > plain.Runs {
					t.Errorf("%v explored more runs (%d) than full exploration (%d)", mode, reduced.Runs, plain.Runs)
				}
				runs[mode] = reduced.Runs
			}
			if runs[check.PORSource] > runs[check.PORSleep] {
				t.Errorf("source-DPOR explored more runs (%d) than sleep sets (%d)",
					runs[check.PORSource], runs[check.PORSleep])
			}
		})
	}
}

// TestPORReductionBites pins the acceptance bar: at least three tests of
// the core litmus suite must explore at least 3x fewer executions under
// POR at identical outcome sets. (Currently SB, LB and IRIW clear the
// bar; IRIW — four threads, two locations — collapses by ~88x.)
func TestPORReductionBites(t *testing.T) {
	hits := 0
	for _, tc := range Suite() {
		plain := Run(tc, 0, WithWorkers(1))
		reduced := Run(tc, 0, WithWorkers(1), WithPOR(true))
		if !reflect.DeepEqual(outcomeKeySet(plain), outcomeKeySet(reduced)) {
			t.Fatalf("%s: outcome sets diverged", tc.Name)
		}
		if reduced.Runs*3 <= plain.Runs {
			hits++
			t.Logf("%s: %d -> %d executions (%.1fx)", tc.Name, plain.Runs, reduced.Runs,
				float64(plain.Runs)/float64(reduced.Runs))
		}
	}
	if hits < 3 {
		t.Fatalf("only %d suite tests achieved a 3x reduction, want >= 3", hits)
	}
}

// TestSourceDPORBitesOnIRIW pins this PR's acceptance bar: on IRIW —
// four threads, two locations, where sleep sets leave the read-choice
// blowup untouched — source-DPOR's read floors must cut executions to
// at most a fifth of the sleep-set count, at the identical outcome set.
func TestSourceDPORBitesOnIRIW(t *testing.T) {
	var iriw Test
	for _, tc := range Suite() {
		if tc.Name == "IRIW" {
			iriw = tc
			break
		}
	}
	if iriw.Name == "" {
		t.Fatal("IRIW not in suite")
	}
	sleep := Run(iriw, 0, WithWorkers(1), WithPORMode(check.PORSleep))
	source := Run(iriw, 0, WithWorkers(1), WithPORMode(check.PORSource))
	if !sleep.Complete || !source.Complete {
		t.Fatalf("incomplete: sleep=%v source=%v", sleep.Complete, source.Complete)
	}
	if !reflect.DeepEqual(outcomeKeySet(sleep), outcomeKeySet(source)) {
		t.Fatalf("outcome sets diverged:\nsleep:  %v\nsource: %v", outcomeKeySet(sleep), outcomeKeySet(source))
	}
	if source.Runs*5 > sleep.Runs {
		t.Fatalf("source-DPOR on IRIW: %d runs, want <= 1/5 of sleep's %d", source.Runs, sleep.Runs)
	}
	t.Logf("IRIW: sleep=%d source=%d (%.1fx)", sleep.Runs, source.Runs,
		float64(sleep.Runs)/float64(source.Runs))
}

// TestSTAR5ExhaustiveUnderSource pins that the five-thread STAR5 test —
// added with this PR precisely because it is out of comfortable reach
// without dynamic reduction — explores exhaustively under source-DPOR
// and agrees with the unreduced outcome set.
func TestSTAR5ExhaustiveUnderSource(t *testing.T) {
	var star Test
	for _, tc := range Suite() {
		if tc.Name == "STAR5" {
			star = tc
			break
		}
	}
	if star.Name == "" {
		t.Fatal("STAR5 not in suite")
	}
	source := Run(star, 0, WithWorkers(1), WithPORMode(check.PORSource))
	if !source.Complete {
		t.Fatalf("STAR5 incomplete under source-DPOR after %d runs", source.Runs)
	}
	if !source.OK() {
		t.Fatalf("STAR5 failed under source-DPOR:\n%s", source)
	}
	plain := Run(star, 0, WithWorkers(1))
	if !plain.Complete {
		t.Fatalf("STAR5 incomplete unreduced after %d runs", plain.Runs)
	}
	if !reflect.DeepEqual(outcomeKeySet(plain), outcomeKeySet(source)) {
		t.Fatalf("outcome sets diverged:\nplain:  %v\nsource: %v", outcomeKeySet(plain), outcomeKeySet(source))
	}
	t.Logf("STAR5: plain=%d source=%d", plain.Runs, source.Runs)
}

// TestPORComposesWithFootprintAndWorkers checks POR against parallel
// subtree exploration, in both reduction modes: the parallel explorer
// must visit exactly the runs the serial POR exploration does and observe
// the same outcome set. The name predates the removal of footprint
// pruning and is kept so the test's history stays comparable. For
// source-DPOR this doubles as the purity gate — wakes and read floors
// must be a function of the decision prefix alone, or the pinned-prefix
// parallel explorer would produce a different tree.
func TestPORComposesWithFootprintAndWorkers(t *testing.T) {
	tests := append(Suite(), LocalitySuite()...)
	for _, tc := range tests {
		for _, mode := range []check.PORMode{check.PORSleep, check.PORSource} {
			tc, mode := tc, mode
			t.Run(tc.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				serial := Run(tc, 0, WithWorkers(1), WithPORMode(mode))
				stacked := Run(tc, 0, WithWorkers(4), WithPORMode(mode))
				if stacked.Runs != serial.Runs {
					t.Errorf("runs diverged: serial POR %d, POR+workers %d", serial.Runs, stacked.Runs)
				}
				if !reflect.DeepEqual(outcomeKeySet(serial), outcomeKeySet(stacked)) {
					t.Errorf("outcome sets diverged:\nserial:  %v\nstacked: %v",
						outcomeKeySet(serial), outcomeKeySet(stacked))
				}
				if serial.OK() != stacked.OK() {
					t.Errorf("verdict diverged: serial=%v stacked=%v", serial.OK(), stacked.OK())
				}
			})
		}
	}
}
