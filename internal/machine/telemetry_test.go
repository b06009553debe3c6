package machine

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildSB returns a fresh store-buffering program (the classic 2-thread
// litmus shape) with enough branching to exercise both thread-pick and
// read-choice decisions.
func buildSB() Program {
	var x, y view.Loc
	return Program{
		Name:  "SB",
		Setup: func(t *Thread) { x = t.Alloc("x", 0); y = t.Alloc("y", 0) },
		Workers: []func(*Thread){
			func(t *Thread) { t.Write(x, 1, memory.Rlx); t.Report("r1", t.Read(y, memory.Rlx)) },
			func(t *Thread) { t.Write(y, 1, memory.Rlx); t.Report("r2", t.Read(x, memory.Rlx)) },
		},
	}
}

func TestStatusNamesMatchTelemetry(t *testing.T) {
	// telemetry cannot import machine, so its status-name table is pinned
	// by hand; this is the cross-check keeping the two in sync.
	if telemetry.NumStatuses != int(Pruned)+1 {
		t.Fatalf("telemetry tracks %d statuses, machine has %d", telemetry.NumStatuses, int(Pruned)+1)
	}
	for s := OK; s <= Pruned; s++ {
		if got := telemetry.StatusName(uint8(s)); got != s.String() {
			t.Fatalf("status %d: telemetry name %q != machine name %q", s, got, s.String())
		}
	}
}

func TestStepEventLegacyStrings(t *testing.T) {
	// The typed events must render the exact strings the old []string
	// trace contained — Explain output is part of the tool's interface.
	cases := []struct {
		ev   StepEvent
		want string
	}{
		{StepEvent{Thread: 0, Kind: StepAlloc, Loc: 0, LocName: "x", Val: 7},
			"T0  alloc   x (l0) := 7"},
		{StepEvent{Thread: 1, Kind: StepRead, LocName: "x", RMode: memory.Acq, Val: 1},
			"T1  read    x =acq= 1"},
		{StepEvent{Thread: 1, Kind: StepRead, LocName: "x", RMode: memory.NA, Race: true},
			"T1  RACE    read_na x"},
		{StepEvent{Thread: 2, Kind: StepWrite, LocName: "y", WMode: memory.Rel, Val: 3},
			"T2  write   y :=rel= 3"},
		{StepEvent{Thread: 2, Kind: StepWrite, LocName: "y", WMode: memory.Rlx, Race: true},
			"T2  RACE    write_rlx y"},
		{StepEvent{Thread: 0, Kind: StepFree, LocName: "x"},
			"T0  free    x"},
		{StepEvent{Thread: 1, Kind: StepFence, Acquire: true, Release: false},
			"T1  fence   acq=true rel=false"},
		{StepEvent{Thread: 1, Kind: StepFenceSC},
			"T1  fence   sc"},
		{StepEvent{Thread: 1, Kind: StepCAS, LocName: "x", Arg: 1, Val: 2, Old: 1, OK: true},
			"T1  cas     x 1→2 (read 1, ok=true)"},
		{StepEvent{Thread: 1, Kind: StepFAA, LocName: "x", Val: 5, Old: 2},
			"T1  faa     x += 5 (old 2)"},
		{StepEvent{Thread: 1, Kind: StepXchg, LocName: "x", Val: 9, Old: 7},
			"T1  xchg    x := 9 (old 7)"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("StepEvent.String() = %q, want %q", got, c.want)
		}
	}
}

func TestExploreStatsSerialEqualsParallel(t *testing.T) {
	// ExploreParallel partitions the decision tree so that every leaf is
	// executed exactly once with the same decision sequence as the
	// sequential DFS; machine-level telemetry must therefore be identical.
	serial := telemetry.New()
	resS := Explore(buildSB, ExploreOpts{Stats: serial}, func(*Result) bool { return true })
	if !resS.Complete {
		t.Fatalf("serial exploration incomplete: %+v", resS)
	}

	par := telemetry.New()
	resP := ExploreParallel(ExploreOpts{Stats: par, Workers: 4},
		func() (func() Program, func(*Result) bool) {
			return buildSB, func(*Result) bool { return true }
		})
	if !resP.Complete || resP.Runs != resS.Runs {
		t.Fatalf("parallel: %+v, serial: %+v", resP, resS)
	}

	ss, ps := serial.Snapshot(), par.Snapshot()
	if !reflect.DeepEqual(ss.Machine, ps.Machine) {
		t.Fatalf("machine telemetry differs between serial and parallel:\nserial:   %+v\nparallel: %+v",
			ss.Machine, ps.Machine)
	}
	// Exec counters agree with the explorer's own run count in both modes.
	if ss.Machine.Execs != int64(resS.Runs) {
		t.Fatalf("serial: %d execs counted, %d runs reported", ss.Machine.Execs, resS.Runs)
	}
	if ss.Explore.Prefixes != int64(resS.Runs) || ps.Explore.Prefixes != int64(resP.Runs) {
		t.Fatalf("prefixes: serial %d/%d, parallel %d/%d",
			ss.Explore.Prefixes, resS.Runs, ps.Explore.Prefixes, resP.Runs)
	}
	if ss.Machine.ReadChoices == 0 || ss.Machine.StaleReads == 0 {
		t.Fatalf("SB exploration should exercise stale read choices: %+v", ss.Machine)
	}
}

func TestExploreStatsCountBudgetExecs(t *testing.T) {
	// Budget-exhausted executions must show up under the "budget" status,
	// in agreement with the per-status Result accounting.
	spin := func() Program {
		return Program{Setup: func(t *Thread) {
			l := t.Alloc("x", 0)
			for {
				t.Read(l, memory.Rlx)
			}
		}}
	}
	stats := telemetry.New()
	budgeted := 0
	res := Explore(spin, ExploreOpts{Budget: 50, MaxRuns: 3, Stats: stats}, func(r *Result) bool {
		if r.Status == Budget {
			budgeted++
		}
		return true
	})
	snap := stats.Snapshot()
	if budgeted == 0 || snap.Machine.ExecsByStatus["budget"] != int64(budgeted) {
		t.Fatalf("budget execs: visited %d, counted %v", budgeted, snap.Machine.ExecsByStatus)
	}
	if snap.Machine.Execs != int64(res.Runs) {
		t.Fatalf("execs %d != runs %d", snap.Machine.Execs, res.Runs)
	}
}

func TestStatsAddNoPerStepAllocations(t *testing.T) {
	// The acceptance bar: enabling counters (no tracing) must not
	// allocate per machine step. Compare whole-run allocations with and
	// without a Stats sink; the fixed per-run setup (coroutines, threads,
	// memory) is identical on both sides.
	build := func() Program {
		return Program{Setup: func(t *Thread) {
			l := t.Alloc("x", 0)
			for i := 0; i < 400; i++ {
				t.Write(l, int64(i), memory.Rlx)
				t.Read(l, memory.Rlx)
			}
		}}
	}
	base := testing.AllocsPerRun(10, func() {
		(&Runner{}).Run(build(), ReplayStrategy(nil))
	})
	stats := telemetry.New()
	with := testing.AllocsPerRun(10, func() {
		(&Runner{Stats: stats}).Run(build(), ReplayStrategy(nil))
	})
	// 800+ steps per run: any per-step allocation would add hundreds.
	if with-base > 16 {
		t.Fatalf("stats added %.1f allocations per run (base %.1f)", with-base, base)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	// A replayed schedule must export a byte-identical Chrome trace: the
	// timestamp axis is the machine step index, not wall clock.
	r := (&Runner{Trace: true}).Run(buildSB(), ReplayStrategy([]Decision{
		{N: 2, Pick: 1}, // schedule T2 first
		{N: 2, Pick: 0},
		{N: 2, Pick: 0},
	}))
	if r.Status != OK {
		t.Fatalf("replay status %v (%v)", r.Status, r.Err)
	}
	tr := telemetry.NewChromeTrace()
	tr.Append(ChromeTraceEvents(0, "SB", r)...)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace does not validate: %v", err)
	}

	golden := filepath.Join("testdata", "chrome_sb.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace differs from golden (run with -update to regenerate):\n%s", buf.String())
	}
}
