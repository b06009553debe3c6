package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"compass/internal/check"
	"compass/internal/litmus"
)

// The self-tests run from perfbench/, so the repository root is "..".
const repoRoot = ".."

func TestLayerTableCoversInternalPackages(t *testing.T) {
	internal := filepath.Join(repoRoot, "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(internal, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := "compass/" + filepath.ToSlash(rel)
		if !seen[pkg] {
			seen[pkg] = true
			if frameBucket(pkg+".F", "x.go") == "" {
				t.Errorf("package %s has no profile bucket in pkgLayers", pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 20 {
		t.Fatalf("found only %d internal packages under %s", len(seen), internal)
	}
	for key := range pkgLayers {
		if strings.HasSuffix(key, ".go") {
			if _, err := os.Stat(filepath.Join(repoRoot, strings.TrimPrefix(key, "compass/"))); err != nil {
				t.Errorf("pkgLayers names a missing file: %v", err)
			}
		}
	}
}

func TestAttributionSplitsOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", layer: layerMachine, start: 0, end: ms(10)},
		{name: "a", layer: layerBuild, parent: 1, start: ms(1), end: ms(3)},
		{name: "b", layer: layerSpec, parent: 1, start: ms(2), end: ms(6)},
		{name: "empty", layer: layerRefine, parent: 1, start: ms(4), end: ms(4)},
	}
	self := attribute(spans)
	want := map[string]float64{layerMachine: 0.005, layerBuild: 0.0015, layerSpec: 0.0035}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-12 {
			t.Errorf("%s self time = %g, want %g", layer, self[layer], w)
		}
	}
	if err := checkAttribution(self, 0.010); err != nil {
		t.Errorf("exact accounting rejected: %v", err)
	}
	if err := checkAttribution(self, 0.009); err == nil {
		t.Error("self times above the verdict time were accepted")
	}
	if err := checkAttribution(map[string]float64{layerSpec: -1e-3}, 1); err == nil {
		t.Error("a negative self time was accepted")
	}
}

// TestTracedIteration runs one traced lib-refine iteration end to end:
// every verdict matches the golden corpus, self times are non-negative
// and sum to at most verdict_s, and the Chrome trace validates.
func TestTracedIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the library corpus")
	}
	wl, _ := findWorkload("lib-refine")
	e := &env{workload: wl.name, root: repoRoot, out: t.TempDir(), seed: 1}
	s, err := iterate(wl, e, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range s.ops {
		if !op.ok {
			t.Errorf("%s: %s", op.name, op.detail)
		}
	}
	if s.invalid != nil {
		t.Fatal(s.invalid)
	}
	sum := 0.0
	for layer, name := range spanLayers {
		if v := s.layers[name]; v < 0 {
			t.Errorf("%s (%s) = %g, negative", name, layer, v)
		} else {
			sum += v
		}
	}
	if sum > s.verdict || s.layers["trace.unattributed_s"] < 0 {
		t.Errorf("self times sum to %g s, verdict_s is %g s", sum, s.verdict)
	}
	if s.layers["refine.calls"] == 0 || s.layers["spec.calls"] == 0 || s.layers["build.calls"] == 0 {
		t.Errorf("wrapped closures were not traced: %v", s.layers)
	}
	if err := writeChromeTrace(e.path("trace.json"), "perfbench test", s.spans); err != nil {
		t.Errorf("Chrome trace: %v", err)
	}
}

// TestSvcIteration runs one traced svc-dedup iteration: compassd serves
// the job on a loopback listener while the poller reads its status, and
// the job ends with the golden verdict.
func TestSvcIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("explores lib/deque through compassd")
	}
	wl, _ := findWorkload("svc-dedup")
	e := &env{workload: wl.name, root: repoRoot, out: t.TempDir(), seed: 1}
	s, err := iterate(wl, e, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ops) < 4 {
		t.Errorf("only %d operations: want the submit, the event stream, the final status and the polls", len(s.ops))
	}
	for _, op := range s.ops {
		if !op.ok {
			t.Errorf("%s: %s", op.name, op.detail)
		}
	}
	if s.invalid != nil {
		t.Fatal(s.invalid)
	}
	for _, name := range []string{"serve.segments", "serve.checkpoints", "serve.checkpoint_mib", "serve.checkpoint_save_s", "dedup.states", "machine.self_s"} {
		if s.layers[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, s.layers[name])
		}
	}
}

const sampleTraces = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.selectgo /go/src/runtime/select.go:276
             compass/internal/machine.(*Thread).step /w/internal/machine/machine.go:161
-----------+-------------------------------------------------------
      10ms   runtime.memmove /go/src/runtime/memmove_amd64.s:100
             compass/internal/memory.(*Memory).Write /w/internal/memory/memory.go:300
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc /go/src/runtime/malloc.go:1058
             compass/internal/machine.appendDedupState /w/internal/machine/dedup.go:90
-----------+-------------------------------------------------------
      10ms   crypto/sha256.block /go/src/crypto/sha256/sha256block_amd64.s:10
             compass/internal/machine.(*Dedup).Claim /w/internal/machine/dedup.go:120 (inline)
-----------+-------------------------------------------------------
      1.50s  runtime.futex /go/src/runtime/sys_linux_amd64.s:557
             runtime.usleep /go/src/runtime/sys_linux_amd64.s:135
-----------+-------------------------------------------------------
      10ms   sync.(*Mutex).Lock /go/src/sync/mutex.go:81
             main.(*tracer).begin /w/perfbench/trace.go:70
             main.wrapChecked.func2.1 /w/perfbench/trace.go:140
             compass/internal/check.Options.evaluate /w/internal/check/check.go:68
-----------+-------------------------------------------------------
`

func TestProfileBuckets(t *testing.T) {
	shares, err := bucketTraces(sampleTraces)
	if err != nil {
		t.Fatal(err)
	}
	total := 1.58
	want := map[string]float64{
		"prof.chan_handoff": 0.03 / total,
		"prof.memory":       0.01 / total,
		"prof.gc_alloc":     0.02 / total,
		"prof.dedup":        0.01 / total,
		"prof.other":        1.51 / total,
	}
	for k, w := range want {
		if math.Abs(shares[k]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, shares[k], w)
		}
	}
	checkSharesSumToOne(t, shares)
}

// TestProfileSharesOfRealProfile profiles two short explorations into
// two files, as the traced run profiles each verdict, and buckets them,
// merged, through the toolchain's pprof.
func TestProfileSharesOfRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles an exploration")
	}
	var paths []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("cpu-%d.pprof", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			t.Fatal(err)
		}
		for _, tc := range litmus.Suite() {
			if tc.Name == "IRIW" {
				litmus.Run(tc, 400000, litmus.WithWorkers(workers))
			}
		}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	shares, err := profileShares(paths...)
	if err != nil {
		t.Fatal(err)
	}
	checkSharesSumToOne(t, shares)
	if shares["prof.machine"]+shares["prof.chan_handoff"] == 0 {
		t.Errorf("no machine samples in an exploration profile: %v", shares)
	}
}

func checkSharesSumToOne(t *testing.T, shares map[string]float64) {
	t.Helper()
	sum := 0.0
	for _, b := range profBuckets {
		v, ok := shares["prof."+b]
		if !ok || v < 0 {
			t.Errorf("prof.%s = %g (present %v)", b, v, ok)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("prof.* shares sum to %g, want 1", sum)
	}
}

func TestGoldenGateTrips(t *testing.T) {
	golden, err := loadGolden(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	var sb litmus.Test
	for _, tc := range litmus.Suite() {
		if tc.Name == "SB" {
			sb = tc
		}
	}
	res := litmus.Run(sb, 400000, litmus.WithWorkers(workers))
	if op := gateLitmus(res, golden); !op.ok {
		t.Fatalf("SB against its golden line: %s", op.detail)
	}
	wrong := map[string]string{"SB": "SB: complete: r1=1 r2=1"}
	if op := gateLitmus(res, wrong); op.ok {
		t.Error("a wrong expected litmus verdict passed the gate")
	}
	if op := gateGolden("lib/deque", "lib/deque: complete: PASS refine=agree", map[string]string{
		"lib/deque": "lib/deque: complete: FAIL DEQ-ORDER refine=agree",
	}); op.ok {
		t.Error("a wrong expected library verdict passed the gate")
	}

	c := &svcClient{e: &env{}, golden: golden, jobID: "j"}
	c.last.Refine.TracesChecked = 10
	done := []byte(`{"id":"j","status":"done","runs":5,"result":{"complete":true,"passed":true}}`)
	if op := c.judge(done); !op.ok {
		t.Errorf("a done job with the golden verdict failed the gate: %s", op.detail)
	}
	c.golden = map[string]string{svcWorkload: "lib/deque: complete: FAIL X refine=agree"}
	if op := c.judge(done); op.ok {
		t.Error("a wrong expected job verdict passed the gate")
	}
}

func TestRandomGateTrips(t *testing.T) {
	broken := randomCase{name: "broken", wantPass: false}
	correct := randomCase{name: "correct", wantPass: true}
	pass := &check.Report{Executions: randomExecutions}
	fail := &check.Report{Executions: 7, Failures: []check.Failure{{Seed: 3}}}
	if op := gateRandom(broken, pass); op.ok {
		t.Error("the broken variant reporting PASS passed the gate")
	}
	if op := gateRandom(broken, fail); !op.ok {
		t.Errorf("the broken variant reporting FAIL failed the gate: %s", op.detail)
	}
	if op := gateRandom(correct, fail); op.ok {
		t.Error("a correct library reporting FAIL passed the gate")
	}
	if op := gateRandom(correct, &check.Report{Executions: randomExecutions - 1}); op.ok {
		t.Error("a correct library short of its execution count passed the gate")
	}
	if op := gateRandom(correct, pass); !op.ok {
		t.Errorf("a correct library's PASS failed the gate: %s", op.detail)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the
// program's workload and metric lists in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestCalibration checks that a calibration survives the line a
// --calibrate process prints, that malformed lines are refused, and that
// corrected times scale with the host's calibration around the verdict.
func TestCalibration(t *testing.T) {
	c := hostCal{0.512345678, 1.023456789, 0.01}
	got, err := parseCal(c.line())
	if err != nil || math.Abs(got.wall-c.wall) > 1e-9 || math.Abs(got.cpu-c.cpu) > 1e-9 || math.Abs(got.steal-c.steal) > 1e-9 {
		t.Fatalf("parseCal(%q) = %v, %v; want %v", c.line(), got, err, c)
	}
	for _, bad := range []string{"", calLine, calLine + " 0.5 1", calLine + " 0 1 0", calLine + " x 1 0", calLine + " 0.5 1 -1", "perfbench: ready"} {
		if _, err := parseCal(bad); err == nil {
			t.Errorf("parseCal(%q) accepted", bad)
		}
	}
	// A host twice as slow as the reference doubles the raw times, and
	// stolen vCPU time adds to the wall times only; the corrected times
	// do not move.
	busy := float64(min(runtime.NumCPU(), workers))
	for _, slow := range []float64{1, 2} {
		for _, stolen := range []float64{0, 0.2} {
			s := sample{verdict: 3*slow + stolen, cpu: 6 * slow, steal: stolen * busy}
			before := hostCal{calRefWall*slow*0.9 + stolen, calRefCPU * slow * 0.9, stolen * busy}
			after := hostCal{calRefWall * slow * 1.1, calRefCPU * slow * 1.1, 0}
			s.host = before.mean(after)
			wall, cpu := s.corrected()
			if math.Abs(wall-3) > 1e-9 || math.Abs(cpu-6) > 1e-9 {
				t.Errorf("slowdown %v, stolen %v s: corrected %v s, %v cpu-s; want 3, 6", slow, stolen, wall, cpu)
			}
		}
	}
	if got := unstolen(2, 100); got != 1 {
		t.Errorf("unstolen(2, 100) = %v, want the cap 1", got)
	}
	calKernel(4) // the kernel runs to completion
}
