package litmus

import (
	"testing"

	"compass/internal/memory"
)

// TestTraceConflictsImplyDependence checks the oracle contract on real
// executions rather than synthetic access pairs: replay every suite test
// with step-event recording, lift each executed step to its POR access
// descriptor (StepEvent.Access), and assert that no cross-thread pair of
// accesses in the trace is simultaneously Conflicting and Independent.
// This is the trace-grounded complement to the corpus/fuzz property in
// internal/memory — it guarantees the access descriptors the machine
// actually emits (with real locations, modes, and report names) satisfy
// the implication, not just hand-built ones.
func TestTraceConflictsImplyDependence(t *testing.T) {
	tests := append(Suite(), LocalitySuite()...)
	for _, tc := range tests {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			res := TraceTest(tc)
			if len(res.Events) == 0 {
				t.Fatalf("trace replay recorded no events (status %v)", res.Status)
			}
			accs := make([]memory.Access, 0, len(res.Events))
			threads := make([]int, 0, len(res.Events))
			for _, e := range res.Events {
				accs = append(accs, e.Access())
				threads = append(threads, e.Thread)
			}
			pairs := 0
			for i := range accs {
				for j := i + 1; j < len(accs); j++ {
					if threads[i] == threads[j] {
						continue // program order, not a schedulable reversal
					}
					if memory.Conflicting(accs[i], accs[j]) && memory.Independent(accs[i], accs[j]) {
						t.Errorf("steps %d and %d: %+v / %+v conflicting yet independent",
							i, j, accs[i], accs[j])
					}
					pairs++
				}
			}
			if pairs == 0 {
				t.Fatalf("no cross-thread access pairs in trace (%d events)", len(accs))
			}
		})
	}
}
