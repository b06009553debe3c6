package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"compass/internal/analysis/staticplan"
	"compass/internal/check"
	"compass/internal/deque"
	"compass/internal/exchanger"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/stack"
	"compass/internal/telemetry"
)

// goldenFile is the committed golden corpus, relative to the repository
// root. It is read at run time, so a reviewed regeneration of the corpus
// keeps the benchmark's correctness gate in step without editing it.
const goldenFile = "internal/litmus/testdata/golden_litmus.txt"

// env is what a workload's setup and verdict see.
type env struct {
	workload string
	root     string // repository root
	out      string // scratch output directory
	seed     int64
	tr       *tracer          // nil outside traced verdicts
	stats    *telemetry.Stats // nil outside traced verdicts
}

func (e *env) path(name string) string { return filepath.Join(e.out, name) }

// workload is one benchmark input set.
type workload struct {
	name  string
	setup func(e *env) (*instance, error)
}

// instance is one set-up workload, ready for its verdict.
type instance struct {
	verdict func() []opResult
	// snapshot returns the layer counters behind the last verdict; nil
	// means the env's telemetry sink holds them.
	snapshot func() telemetry.Snapshot
	// probe, when set, runs after a traced verdict, outside the timed
	// interval, and may add spans and per-layer metrics to serve.
	probe func() error
	serve map[string]float64
	close func()
}

var workloads = []workload{
	{"litmus-default", setupLitmus},
	{"lib-refine", setupLibRefine},
	{"random-mix", setupRandomMix},
	{"svc-dedup", setupSvcDedup},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// loadGolden reads the golden corpus into a map from test or library
// name to its golden line.
func loadGolden(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("golden corpus: %w", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, ok := strings.Cut(line, ": ")
		if !ok {
			return nil, fmt.Errorf("golden corpus: malformed line %q", line)
		}
		golden[name] = line
	}
	return golden, nil
}

// litmusGoldenLine renders a litmus result the way the golden corpus
// does: the sorted reachable-outcome set and the completeness verdict.
func litmusGoldenLine(r *litmus.Result) string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	verdict := "complete"
	if !r.Complete {
		verdict = "bounded"
	}
	return fmt.Sprintf("%s: %s: %s", r.Test.Name, verdict, strings.Join(keys, " | "))
}

// gateGolden judges one verdict against its golden line.
func gateGolden(name, got string, golden map[string]string) opResult {
	want, ok := golden[name]
	switch {
	case !ok:
		return opResult{name: name, detail: "no golden line"}
	case got != want:
		return opResult{name: name, detail: fmt.Sprintf("verdict %q, golden %q", got, want)}
	}
	return opResult{name: name, ok: true}
}

// gateLitmus judges one litmus verdict: the forbidden/required checks
// and equality with the golden line.
func gateLitmus(res *litmus.Result, golden map[string]string) opResult {
	op := gateGolden(res.Test.Name, litmusGoldenLine(res), golden)
	if op.ok && !res.OK() {
		op.ok, op.detail = false, res.String()
	}
	op.execs = res.Runs
	return op
}

// shuffled returns a copy of s in a seed-determined order: the seed
// chooses the order in which the corpus is verified.
func shuffled[T any](s []T, seed int64) []T {
	out := append([]T(nil), s...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setupLitmus is litmus-default: what `go run ./cmd/litmus` runs with its
// defaults — the litmus suite explored exhaustively with POR off, no
// plan, no dedup and no oracles.
func setupLitmus(e *env) (*instance, error) {
	golden, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	tests := shuffled(litmus.Suite(), e.seed)
	return &instance{
		verdict: func() []opResult {
			var ops []opResult
			for _, t := range tests {
				id := e.tr.begin("litmus.Run", layerMachine, t.Name, 0)
				t.Build = wrapProgram(e.tr, id, t.Name, t.Build)
				res := litmus.Run(t, 400000, litmus.WithWorkers(workers), litmus.WithStats(e.stats))
				e.tr.end(id)
				ops = append(ops, gateLitmus(res, golden))
			}
			return ops
		},
		close: func() {},
	}, nil
}

// setupLibRefine is lib-refine: the library refinement corpus as
// `go run ./cmd/litmus -refine -por=source -plan` explores it, with the
// spec and refinement oracles judging every execution and dedup off.
func setupLibRefine(e *env) (*instance, error) {
	golden, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	tests := shuffled(litmus.LibrarySuite(), e.seed)
	plans := make([]*memory.Plan, len(tests))
	for i, t := range tests {
		if plans[i] = staticplan.PlanFor(t.Name); plans[i] == nil {
			return nil, fmt.Errorf("%s: no committed static plan", t.Name)
		}
	}
	return &instance{
		verdict: func() []opResult {
			var ops []opResult
			for i, t := range tests {
				id := e.tr.begin("litmus.RunLib", layerMachine, t.Name, 0)
				t.Build = wrapChecked(e.tr, id, t.Name, t.Build)
				res := litmus.RunLib(t, 600000, litmus.WithWorkers(workers), litmus.WithStats(e.stats),
					litmus.WithPORMode(check.PORSource), litmus.WithPlan(plans[i]))
				e.tr.end(id)
				op := gateGolden(t.Name, res.GoldenLine(), golden)
				if op.ok && !res.OK() {
					op.ok, op.detail = false, res.String()
				}
				op.execs = res.Runs
				ops = append(ops, op)
			}
			return ops
		},
		close: func() {},
	}, nil
}

// randomCase is one random-mix library run.
type randomCase struct {
	name     string
	build    func() check.Checked
	wantPass bool
}

// randomExecutions is the sample count of every random-mix case.
const randomExecutions = 3000

// randomCases are the random-mix libraries at the compass CLI's default
// instance sizes (2 producers x 3 ops, 2 consumers x 4 attempts), plus
// one deliberately broken queue that must be caught.
func randomCases() []randomCase {
	ms := func(th *machine.Thread) queue.Queue { return queue.NewMS(th, "q") }
	hw := func(th *machine.Thread) queue.Queue { return queue.NewHW(th, "q", 64) }
	buggy := func(th *machine.Thread) queue.Queue { return queue.NewMSBuggyRelaxedLink(th, "q") }
	treiber := func(th *machine.Thread) stack.Stack { return stack.NewTreiber(th, "s") }
	ex := func(th *machine.Thread) *exchanger.Exchanger { return exchanger.New(th, "x") }
	dq := func(th *machine.Thread) *deque.Deque { return deque.New(th, "d", 8) }
	return []randomCase{
		{"msqueue@abs", check.QueueMixed(ms, spec.LevelAbsHB, 2, 3, 2, 4), true},
		{"hwqueue@hb", check.QueueMixed(hw, spec.LevelHB, 2, 3, 2, 4), true},
		{"treiber@hist", check.StackMixed(treiber, spec.LevelHist, 2, 3, 2, 4), true},
		{"elimstack-composed@hb", check.ElimStackComposed(spec.LevelHB, 2, 2), true},
		{"exchanger-pairs", check.ExchangerPairs(ex, 4, 6), true},
		{"deque@hb", check.DequeWorkStealing(dq, spec.LevelHB, 4, 2, 3), true},
		{"msqueue-buggy-relaxed-link@abs", check.QueueMixed(buggy, spec.LevelAbsHB, 2, 3, 2, 4), false},
	}
}

// gateRandom judges one random-mix report: a correct library passes over
// its full execution count, the broken one fails.
func gateRandom(c randomCase, rep *check.Report) opResult {
	op := opResult{name: c.name, execs: rep.Executions}
	switch {
	case c.wantPass && !rep.Passed():
		op.detail = "correct library reported FAIL: " + rep.String()
	case c.wantPass && rep.Executions != randomExecutions:
		op.detail = fmt.Sprintf("ran %d of %d executions", rep.Executions, randomExecutions)
	case !c.wantPass && rep.Passed():
		op.detail = "broken library reported PASS"
	default:
		op.ok = true
	}
	return op
}

// setupRandomMix is random-mix: the compass CLI's random-sampling path
// (check.Run, ModeRandom, stale bias 0.5) over six libraries and one
// broken variant, with the base seed taken from the benchmark's seed.
func setupRandomMix(e *env) (*instance, error) {
	cases := randomCases()
	base := e.seed*1_000_000 + 1
	return &instance{
		verdict: func() []opResult {
			var ops []opResult
			for _, c := range cases {
				id := e.tr.begin("check.Run", layerMachine, c.name, 0)
				rep := check.Run(c.name, wrapChecked(e.tr, id, c.name, c.build), check.Options{
					Executions: randomExecutions, Seed: base, StaleBias: 0.5,
					Workers: workers, Stats: e.stats,
				})
				e.tr.end(id)
				ops = append(ops, gateRandom(c, rep))
			}
			return ops
		},
		close: func() {},
	}, nil
}
