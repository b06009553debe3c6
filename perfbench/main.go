// Command perfbench measures the Compass checker's time to verdict on the
// host it runs on, end to end and split by layer. It drives the checker
// through the same entry points the CLIs and compassd use (litmus.Run,
// litmus.RunLib, check.Run, and serve.Manager behind serve.Handler),
// times the calls it makes into each layer, and reads the counters those
// layers already export. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload litmus-default --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a second, traced pass that also writes a Chrome trace and a CPU
// profile into the output directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"compass/internal/telemetry"
)

// workers is the exploration and harness worker count of every workload.
// It is part of the workload definition, never read from the host, so a
// run on a bigger machine measures the same configuration.
const workers = 2

// setupProcs is how many fresh processes time the workload's set-up
// before each untraced iteration; setup_s is the median over the run, so
// like verdict_s it samples the host across the whole run.
const setupProcs = 10

// readyLine is what a --setup-only process prints on standard output once
// its set-up is done, before it tears the instance down.
const readyLine = "perfbench: ready"

// minIters is the fewest measured iterations per phase, so every median
// has at least three samples.
const minIters = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the checker sees, reported with
// --trace 0. ok_ratio is the share of operations that returned the
// expected verdict; its complement is the per-layer error_ratio.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the per-layer metrics reported with --trace 1. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"build.calls", "count"},
	{"build.s", "s"},
	{"machine.self_s", "s"},
	{"machine.execs", "count"},
	{"machine.steps", "count"},
	{"machine.ns_per_step", "ns"},
	{"machine.read_choices", "count"},
	{"machine.stale_reads", "count"},
	{"explore.prefixes", "count"},
	{"explore.frontier_peak", "count"},
	{"por.races_reversed", "count"},
	{"por.stale_reads_skipped", "count"},
	{"plan.checks", "count"},
	{"plan.conflicts_refuted", "count"},
	{"dedup.states", "count"},
	{"dedup.hits", "count"},
	{"dedup.hit_ratio", "ratio"},
	{"dedup.evictions", "count"},
	{"spec.calls", "count"},
	{"spec.s", "s"},
	{"refine.calls", "count"},
	{"refine.s", "s"},
	{"refine.disagreements", "count"},
	{"serve.self_s", "s"},
	{"serve.submit_ms", "ms"},
	{"serve.segments", "count"},
	{"serve.segment_gap_p50_s", "s"},
	{"serve.segment_gap_max_s", "s"},
	{"serve.checkpoints", "count"},
	{"serve.checkpoint_mib", "MiB"},
	{"serve.checkpoint_save_s", "s"},
	{"serve.checkpoint_load_s", "s"},
	{"serve.status_p50_ms", "ms"},
	{"serve.status_p90_ms", "ms"},
	{"serve.generator_late_ms", "ms"},
	{"gc.cpu_s", "s"},
	{"gc.cycles", "count"},
	{"alloc.bytes_per_exec", "B"},
	{"alloc.objects_per_exec", "count"},
	{"sched.latency_p50_us", "us"},
	{"sched.latency_p99_us", "us"},
	{"mutex.wait_s", "s"},
	{"prof.chan_handoff", "share"},
	{"prof.machine", "share"},
	{"prof.memory", "share"},
	{"prof.por", "share"},
	{"prof.dedup", "share"},
	{"prof.spec", "share"},
	{"prof.refine", "share"},
	{"prof.serve", "share"},
	{"prof.gc_alloc", "share"},
	{"prof.other", "share"},
	{"host.verdict_wall_s", "s"},
	{"host.verdict_cpu_s", "s"},
	{"host.verdict_steal_s", "s"},
	{"host.calib_wall_s", "s"},
	{"host.calib_cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_s", "s"},
	{"error_ratio", "ratio"},
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opResult is one judged operation: a litmus or library verdict, or an
// HTTP request against compassd.
type opResult struct {
	name   string
	ok     bool
	detail string // why the operation failed; empty when ok
	execs  int    // executions behind the verdict (0 for plain requests)
}

// sample is one measured iteration.
type sample struct {
	setup   []float64 // seconds per set-up process, untraced iterations only
	verdict float64   // seconds from the first checker call to the last verdict
	cpu     float64   // process user+sys CPU seconds over the verdict
	steal   float64   // steal seconds over the verdict, summed over vCPUs
	cal     hostCal   // the calibration before this iteration, untraced iterations only
	host    hostCal   // mean of cal and the next calibration: the host's speed around the verdict
	ops     []opResult
	rt      runtimeDelta
	layers  map[string]float64 // per-layer metrics, traced iterations only
	invalid error              // why a traced iteration's span accounting failed its check
	spans   []span             // a traced iteration's spans, probe spans included
	profile string             // a traced iteration's CPU profile of its verdict
}

func (s sample) execs() int {
	n := 0
	for _, op := range s.ops {
		n += op.execs
	}
	return n
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement time of the run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	root := flag.String("root", ".", "repository root (holds the golden corpus)")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for state dirs, the Chrome trace and the CPU profile")
	setupOnly := flag.Bool("setup-only", false, "set the workload up once and exit (how setup_s is timed)")
	calib := flag.Bool("calibrate", false, "time the host-speed calibration kernel once and exit")
	flag.Parse()

	if *calib {
		runCalibration()
		return
	}

	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s and --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	e := &env{workload: wl.name, root: *root, out: *out, seed: *seed}
	if *setupOnly {
		inst, err := wl.setup(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			os.Exit(2)
		}
		fmt.Println(readyLine)
		inst.close()
		return
	}
	res, err := run(wl, e, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if !res.Correct {
		fmt.Println("metrics INVALID: the run had errors (see stderr)")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload: untraced iterations for the end-to-end
// metrics, or, when traced is set, untraced and then traced iterations
// for the per-layer metrics.
func run(wl workload, e *env, budget time.Duration, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	defs, measure := endToEnd, measureEndToEnd
	if traced {
		defs, measure = perLayer, measureLayers
	}
	m, err := measure(wl, e, budget, res)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return res, nil
}

// tally counts the samples' operations into res and reports each failed
// one on standard error.
func (res *result) tally(workload string, ss []sample) {
	for _, s := range ss {
		for _, op := range s.ops {
			res.Attempted++
			if !op.ok {
				res.Failed++
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %s\n", workload, op.name, op.detail)
			}
		}
	}
}

func measureEndToEnd(wl workload, e *env, budget time.Duration, res *result) (map[string]float64, error) {
	plain, err := phase(wl, e, budget, false)
	if err != nil {
		return nil, err
	}
	res.tally(wl.name, plain)
	var setups, walls, cpus []float64
	for _, s := range plain {
		setups = append(setups, s.setup...)
		wall, cpu := s.corrected()
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"verdict_s":    median(walls),
		"cpu_s":        median(cpus),
		"peak_rss_mib": peakRSSMiB(),
		"ok_ratio":     float64(res.Attempted-res.Failed) / float64(max(res.Attempted, 1)),
	}, nil
}

// measureLayers spends half the budget on untraced iterations, for the
// runtime metrics and the tracing overhead, and half on traced ones, each
// of whose verdicts runs under its own CPU profile. It writes the first
// traced iteration's spans as a Chrome trace.
func measureLayers(wl workload, e *env, budget time.Duration, res *result) (map[string]float64, error) {
	plain, err := phase(wl, e, budget/2, false)
	if err != nil {
		return nil, err
	}
	traced, err := phase(wl, e, budget/2, true)
	if err != nil {
		return nil, err
	}
	res.tally(wl.name, plain)
	res.tally(wl.name, traced)

	m := map[string]float64{}
	for _, d := range perLayer {
		var vs []float64
		for _, s := range traced {
			vs = append(vs, s.layers[d.name])
		}
		m[d.name] = median(vs)
	}
	for k, v := range runtimeMetrics(plain) {
		m[k] = v
	}
	var walls, cpus, steals, calWalls, calCPUs []float64
	for _, s := range plain {
		walls = append(walls, s.verdict)
		cpus = append(cpus, s.cpu)
		steals = append(steals, s.steal)
		calWalls = append(calWalls, s.host.wall)
		calCPUs = append(calCPUs, s.host.cpu)
	}
	m["host.verdict_wall_s"] = median(walls)
	m["host.verdict_cpu_s"] = median(cpus)
	m["host.verdict_steal_s"] = median(steals)
	m["host.calib_wall_s"] = median(calWalls)
	m["host.calib_cpu_s"] = median(calCPUs)
	m["trace.overhead_ratio"] = median(verdicts(traced)) / median(verdicts(plain))
	m["error_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	invalid := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", wl.name, what, err)
		res.Correct = false
	}
	var profiles []string
	for _, s := range traced {
		profiles = append(profiles, s.profile)
	}
	shares, err := profileShares(profiles...)
	if err != nil {
		invalid("CPU profile", err)
	}
	for k, v := range shares {
		m[k] = v
	}
	for _, s := range traced {
		if s.invalid != nil {
			invalid("trace", s.invalid)
		}
	}
	tracePath := e.path("trace.json")
	if err := writeChromeTrace(tracePath, "perfbench "+wl.name, traced[0].spans); err != nil {
		invalid("Chrome trace "+tracePath, err)
	}
	return m, nil
}

// phase runs iterations until the next one would end past budget, and at
// least minIters of them. An untraced phase calibrates once more after
// its last iteration, so every verdict has a calibration on each side.
func phase(wl workload, e *env, budget time.Duration, traced bool) ([]sample, error) {
	start := time.Now()
	var out []sample
	var took []float64
	for {
		t0 := time.Now()
		s, err := iterate(wl, e, traced, len(out))
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			s.spans = nil // only the first traced iteration's spans are written out
		}
		out = append(out, s)
		took = append(took, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s: iteration %d (traced=%v): setup %.4f s, calibration %.4f s %.4f cpu-s %.2f steal-s, verdict %.4f s, cpu %.4f s, steal %.2f s\n",
			wl.name, len(out), traced, median(s.setup), s.cal.wall, s.cal.cpu, s.cal.steal, s.verdict, s.cpu, s.steal)
		if len(out) >= minIters && time.Since(start).Seconds()+median(took) > budget.Seconds() {
			break
		}
	}
	if traced {
		return out, nil
	}
	last, err := calibrate(e)
	if err != nil {
		return nil, err
	}
	for i := range out {
		next := last
		if i+1 < len(out) {
			next = out[i+1].cal
		}
		out[i].host = out[i].cal.mean(next)
	}
	return out, nil
}

// child starts the benchmark binary with args, and returns the first line
// it prints on standard output with the wall time until that line. It
// waits for the process to end.
func child(exe string, args ...string) (string, float64, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return "", 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0).Seconds()
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return "", 0, err
	}
	if rerr != nil {
		return "", 0, fmt.Errorf("no output line: %w", rerr)
	}
	return strings.TrimSuffix(line, "\n"), d, nil
}

// setupSeconds times setupProcs fresh processes that each set the
// workload up and exit before the first verdict call, and returns their
// wall times. A fresh process pays what a user of the CLIs pays before a
// verdict: process start, package initialization, reading the corpus and
// plan fixtures, and building the suite or the service.
func setupSeconds(e *env) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var took []float64
	for i := 0; i < setupProcs; i++ {
		// The clock stops at the ready line, so the child's teardown and
		// exit are not set-up time.
		line, d, err := child(exe, "--setup-only", "--workload", e.workload,
			"--seed", strconv.FormatInt(e.seed, 10), "--root", e.root, "--out", e.out)
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if line != readyLine {
			return nil, fmt.Errorf("set-up process printed %q, want %q", line, readyLine)
		}
		took = append(took, d)
	}
	return took, nil
}

// iterate sets up one instance and measures its verdict. The collector
// runs before the verdict, outside the timed interval, so one
// iteration's garbage is not billed to the next. A traced iteration
// profiles its verdict alone into the i-th profile file.
func iterate(wl workload, e *env, traced bool, i int) (sample, error) {
	var s sample
	if !traced {
		var err error
		if s.setup, err = setupSeconds(e); err != nil {
			return s, err
		}
		if s.cal, err = calibrate(e); err != nil {
			return s, err
		}
	}
	e.tr, e.stats = nil, nil
	inst, err := wl.setup(e)
	if err != nil {
		return s, err
	}
	defer inst.close()
	runtime.GC()
	rt0 := readRuntime()
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	var prof *os.File
	if traced {
		e.tr, e.stats = newTracer(), telemetry.New()
		s.profile = e.path(fmt.Sprintf("cpu-%d.pprof", i))
		if prof, err = os.Create(s.profile); err != nil {
			return s, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return s, err
		}
	}
	t0 := time.Now()
	s.ops = inst.verdict()
	s.verdict = time.Since(t0).Seconds()
	s.cpu = cpuSeconds() - cpu0
	s.steal = stealSeconds() - steal0
	s.rt = readRuntime().sub(rt0)
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return s, err
		}
		verdictSpans := e.tr.snapshot()
		if inst.probe != nil {
			if err := inst.probe(); err != nil {
				s.ops = append(s.ops, opResult{name: "probe", detail: err.Error()})
			}
		}
		s.layers, s.invalid = layerMetrics(e, inst, s, verdictSpans)
		s.spans = e.tr.snapshot()
	}
	return s, nil
}

func verdicts(ss []sample) []float64 {
	var vs []float64
	for _, s := range ss {
		vs = append(vs, s.verdict)
	}
	return vs
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
