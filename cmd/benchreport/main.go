// Command benchreport runs the tier-1 benchmark set with -benchmem and
// writes the parsed results to BENCH_<date>.json in the repository root,
// seeding the performance trajectory: each entry records ns/op, B/op, and
// allocs/op per benchmark, plus the environment, so successive snapshots
// are diffable.
//
//	go run ./cmd/benchreport                    # write BENCH_<today>.json
//	go run ./cmd/benchreport -out results.json
//	go run ./cmd/benchreport -bench 'ViewClone|ReleaseWrite' -benchtime 100x
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"compass"
)

// tierOnePackages is the benchmark set tracked across snapshots: the
// view-lattice, memory-subsystem and scheduler microbenchmarks plus the
// end-to-end harness benchmarks at the repository root.
var tierOnePackages = []string{".", "./internal/view", "./internal/memory", "./internal/machine", "./internal/spec"}

// tierOneBenchmarks is the default -bench regex: the stable cross-snapshot
// set. The root package's per-figure experiment benchmarks run a whole
// experiment per iteration and are deliberately excluded from the default;
// pass -bench explicitly to include them.
const tierOneBenchmarks = "^(" + tierOneBenchNames + ")$"

const tierOneBenchNames = "BenchmarkViewJoinInto16|BenchmarkViewClone16|BenchmarkViewLeq16|" +
	"BenchmarkLogViewJoin32|BenchmarkClockJoin|" +
	"BenchmarkReleaseWrite|BenchmarkAcquireRead|BenchmarkCAS|BenchmarkFenceSC|" +
	"BenchmarkMessagePassingRoundTrip|" +
	"BenchmarkCheckQueueHB32|BenchmarkCheckQueueAbs32|BenchmarkReplayCommitOrder128|" +
	"BenchmarkLinearizableSearch|" +
	"BenchmarkSchedulerHandoff|BenchmarkMachineSteps|BenchmarkT1EffortTable|BenchmarkExhaustiveMP|" +
	"BenchmarkMSQueueVerifiedExecution|BenchmarkHWQueueVerifiedExecution|" +
	"BenchmarkTreiberVerifiedExecution"

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the file format of BENCH_<date>.json.
type Report struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOARCH     string      `json:"goarch"`
	GOOS       string      `json:"goos"`
	NumCPU     int         `json:"num_cpu"`
	BenchTime  string      `json:"benchtime"`
	BenchRegex string      `json:"bench_regex"`
	Results    []Result    `json:"results"`
	POR        *PORReport  `json:"por,omitempty"`
	Plan       *PlanReport `json:"plan,omitempty"`
}

// PORReport records partial-order reduction effectiveness: the litmus
// suite plus the locality workloads, each explored exhaustively three
// times — reduction off, static sleep sets, and source-DPOR. POR removes
// whole executions, so the headline numbers here are per-test execution counts and the sweeps' wall-clock
// deltas. Outcome *sets* are identical in all three modes by
// construction (the equivalence test in internal/litmus asserts it, and
// measurePOR re-checks per test and mode before recording).
type PORReport struct {
	Tests         []PORTest `json:"tests"`
	SecondsOff    float64   `json:"seconds_off"`
	SecondsSleep  float64   `json:"seconds_sleep"`
	SecondsSource float64   `json:"seconds_source"`
	// BranchesSkipped is the sleep-set sweep's por_branches_skipped
	// telemetry total: scheduling branches not taken because the thread
	// was asleep.
	BranchesSkipped int64 `json:"branches_skipped"`
	// RacesReversed is the source-DPOR sweep's por_races_reversed
	// telemetry total: dynamically observed conflicts whose reversal the
	// exploration branched on (each is one wakeup-tree node).
	RacesReversed int64 `json:"races_reversed"`
	// StaleReadsSkipped is the source-DPOR sweep's
	// por_stale_reads_skipped total: read-value branches pruned by wakeup
	// read floors.
	StaleReadsSkipped int64 `json:"stale_reads_skipped"`
}

// PORTest is one test's execution counts in the three reduction modes.
type PORTest struct {
	Name        string `json:"name"`
	ExecsOff    int    `json:"execs_off"`
	ExecsSleep  int    `json:"execs_sleep"`
	ExecsSource int    `json:"execs_source"`
}

// outcomeSetsEqual reports whether the two histograms have the same key
// set — POR's invariant (counts legitimately differ).
func outcomeSetsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// measurePOR runs the exhaustive litmus suite three times — reduction
// off, sleep sets, source-DPOR — and records per-test execution counts
// plus the per-sweep wall clock. Any test failure or outcome-set
// divergence aborts: a BENCH file must never record reduction numbers
// from a sweep whose outcomes were wrong.
func measurePOR(maxRuns int) (*PORReport, error) {
	rep := &PORReport{}
	tests := append(compass.LitmusSuite(), compass.LitmusLocalitySuite()...)
	startOff := time.Now()
	off := make([]*compass.LitmusResult, len(tests))
	for i, t := range tests {
		off[i] = compass.RunLitmus(t, maxRuns)
		if !off[i].OK() {
			return nil, fmt.Errorf("%s: exploration failed (por=off):\n%s", t.Name, off[i])
		}
	}
	rep.SecondsOff = time.Since(startOff).Seconds()

	sweep := func(mode compass.PORMode) ([]int, float64, *compass.Telemetry, error) {
		stats := compass.NewTelemetry()
		start := time.Now()
		runs := make([]int, len(tests))
		for i, t := range tests {
			res := compass.RunLitmus(t, maxRuns, compass.WithStats(stats), compass.WithPORMode(mode))
			if !res.OK() {
				return nil, 0, nil, fmt.Errorf("%s: exploration failed (por=%v):\n%s", t.Name, mode, res)
			}
			if !outcomeSetsEqual(off[i].Outcomes, res.Outcomes) {
				return nil, 0, nil, fmt.Errorf("%s: outcome sets diverged under por=%v:\noff: %v\npor: %v",
					t.Name, mode, off[i].Outcomes, res.Outcomes)
			}
			runs[i] = res.Runs
		}
		return runs, time.Since(start).Seconds(), stats, nil
	}

	sleepRuns, sleepSecs, sleepStats, err := sweep(compass.PORSleep)
	if err != nil {
		return nil, err
	}
	sourceRuns, sourceSecs, sourceStats, err := sweep(compass.PORSource)
	if err != nil {
		return nil, err
	}
	rep.SecondsSleep = sleepSecs
	rep.SecondsSource = sourceSecs
	rep.BranchesSkipped = sleepStats.Snapshot().Explore.PORBranchesSkipped
	srcSnap := sourceStats.Snapshot()
	rep.RacesReversed = srcSnap.Explore.PORRacesReversed
	rep.StaleReadsSkipped = srcSnap.Explore.PORStaleReadsSkipped
	for i, t := range tests {
		rep.Tests = append(rep.Tests, PORTest{
			Name: t.Name, ExecsOff: off[i].Runs, ExecsSleep: sleepRuns[i], ExecsSource: sourceRuns[i],
		})
	}
	return rep, nil
}

// PlanReport records static access-plan effectiveness under source-DPOR:
// the litmus suite, the locality workloads, and the library
// refinement corpus, each explored exhaustively at -por=source once
// without and once with the committed static plan installed. The plan
// refutes conservative dependence verdicts (and forces provably
// invisible steps), so the headline numbers are per-test execution
// counts; outcome sets / golden verdicts are identical by construction
// and re-checked per test before recording.
type PlanReport struct {
	Tests          []PlanTest `json:"tests"`
	SecondsBare    float64    `json:"seconds_bare"`
	SecondsPlanned float64    `json:"seconds_planned"`
	// PlanChecks is the planned sweep's plan_checks telemetry total:
	// conflict verdicts the source-DPOR explorer asked the plan oracle
	// about.
	PlanChecks int64 `json:"plan_checks"`
	// PlanConflictsRefuted is the planned sweep's plan_conflicts_refuted
	// total: conservative conflicts the plan proved impossible (each one
	// removes a race-reversal branch).
	PlanConflictsRefuted int64 `json:"plan_conflicts_refuted"`
}

// PlanTest is one test's execution counts at -por=source, plan off/on.
type PlanTest struct {
	Name         string `json:"name"`
	ExecsBare    int    `json:"execs_bare"`
	ExecsPlanned int    `json:"execs_planned"`
}

// measurePlan runs everything at -por=source twice — without and with
// the committed static plans — re-checking outcome-set (litmus) or
// golden-verdict (library) equality per test. Any divergence aborts: a
// BENCH file must never record reduction numbers from an unsound sweep.
func measurePlan(maxRuns int) (*PlanReport, error) {
	rep := &PlanReport{}
	stats := compass.NewTelemetry()
	tests := append(compass.LitmusSuite(), compass.LitmusLocalitySuite()...)
	startBare := time.Now()
	bare := make([]*compass.LitmusResult, len(tests))
	for i, t := range tests {
		bare[i] = compass.RunLitmus(t, maxRuns, compass.WithPORMode(compass.PORSource))
		if !bare[i].OK() {
			return nil, fmt.Errorf("%s: exploration failed (plan=off):\n%s", t.Name, bare[i])
		}
	}
	libs := compass.LibrarySuite()
	libBare := make([]*compass.LibResult, len(libs))
	for i, lt := range libs {
		libBare[i] = compass.RunLibRefinement(lt, 600000, compass.WithPORMode(compass.PORSource))
		if !libBare[i].OK() {
			return nil, fmt.Errorf("%s: exploration failed (plan=off)", lt.Name)
		}
	}
	rep.SecondsBare = time.Since(startBare).Seconds()

	startPlanned := time.Now()
	for i, t := range tests {
		pl := compass.PlanFor(t.Name)
		if pl == nil {
			return nil, fmt.Errorf("%s: no committed static plan; run `make plan`", t.Name)
		}
		res := compass.RunLitmus(t, maxRuns,
			compass.WithPORMode(compass.PORSource), compass.WithPlan(pl), compass.WithStats(stats))
		if !res.OK() {
			return nil, fmt.Errorf("%s: exploration failed (plan=on):\n%s", t.Name, res)
		}
		if !outcomeSetsEqual(bare[i].Outcomes, res.Outcomes) {
			return nil, fmt.Errorf("%s: outcome sets diverged with the plan installed:\nbare: %v\nplan: %v",
				t.Name, bare[i].Outcomes, res.Outcomes)
		}
		rep.Tests = append(rep.Tests, PlanTest{Name: t.Name, ExecsBare: bare[i].Runs, ExecsPlanned: res.Runs})
	}
	for i, lt := range libs {
		pl := compass.PlanFor(lt.Name)
		if pl == nil {
			return nil, fmt.Errorf("%s: no committed static plan; run `make plan`", lt.Name)
		}
		res := compass.RunLibRefinement(lt, 600000,
			compass.WithPORMode(compass.PORSource), compass.WithPlan(pl), compass.WithStats(stats))
		if !res.OK() {
			return nil, fmt.Errorf("%s: exploration failed (plan=on)", lt.Name)
		}
		if libBare[i].GoldenLine() != res.GoldenLine() {
			return nil, fmt.Errorf("%s: golden verdict diverged with the plan installed:\nbare: %s\nplan: %s",
				lt.Name, libBare[i].GoldenLine(), res.GoldenLine())
		}
		rep.Tests = append(rep.Tests, PlanTest{Name: lt.Name, ExecsBare: libBare[i].Runs, ExecsPlanned: res.Runs})
	}
	rep.SecondsPlanned = time.Since(startPlanned).Seconds()
	snap := stats.Snapshot()
	rep.PlanChecks = snap.Explore.PlanChecks
	rep.PlanConflictsRefuted = snap.Explore.PlanConflictsRefuted
	return rep, nil
}

func main() {
	bench := flag.String("bench", tierOneBenchmarks, "benchmark name regex passed to -bench")
	benchtime := flag.String("benchtime", "", "passed to -benchtime (e.g. 100x, 0.5s); empty = go default")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	maxRuns := flag.Int("max-runs", 400000, "exploration bound per litmus test for the reduction measurements")
	por := flag.Bool("por", true, "measure partial-order reduction effectiveness (off vs sleep vs source) over the litmus suite")
	planOn := flag.Bool("plan", true, "measure static access-plan effectiveness (plan off vs on at -por=source) over the litmus and library suites")
	flag.Parse()

	rep := &Report{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		NumCPU:     runtime.NumCPU(),
		BenchTime:  *benchtime,
		BenchRegex: *bench,
	}

	for _, pkg := range tierOnePackages {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", pkg}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		fmt.Fprintf(os.Stderr, "benchreport: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, parse(pkg, buf.Bytes())...)
	}

	if *por {
		fmt.Fprintln(os.Stderr, "benchreport: measuring partial-order reduction over the litmus suite")
		pr, err := measurePOR(*maxRuns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: por: %v\n", err)
			os.Exit(1)
		}
		rep.POR = pr
		for _, t := range pr.Tests {
			fmt.Fprintf(os.Stderr, "benchreport: por: %-16s off %6d | sleep %6d | source %6d executions\n",
				t.Name, t.ExecsOff, t.ExecsSleep, t.ExecsSource)
		}
	}

	if *planOn {
		fmt.Fprintln(os.Stderr, "benchreport: measuring static access plans at -por=source over the litmus and library suites")
		pr, err := measurePlan(*maxRuns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: plan: %v\n", err)
			os.Exit(1)
		}
		rep.Plan = pr
		for _, t := range pr.Tests {
			fmt.Fprintf(os.Stderr, "benchreport: plan: %-16s bare %6d | planned %6d executions\n",
				t.Name, t.ExecsBare, t.ExecsPlanned)
		}
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Results))
}

// parse extracts benchmark lines of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// from go test output.
func parse(pkg string, out []byte) []Result {
	var rs []Result
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		iters, err1 := strconv.ParseInt(f[1], 10, 64)
		ns, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		r := Result{Name: name, Package: pkg, Iterations: iters, NsPerOp: ns}
		for i := 4; i+1 < len(f); i += 2 {
			n, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				r.BytesPerOp = n
			case "allocs/op":
				r.AllocsPerOp = n
			}
		}
		rs = append(rs, r)
	}
	return rs
}
