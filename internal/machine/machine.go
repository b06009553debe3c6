// Package machine executes concurrent programs against the ORC11 memory
// simulator with fully controlled nondeterminism. Programs are plain Go
// closures over a *Thread handle; every memory access is a scheduling
// point. A pluggable Strategy resolves the two sources of relaxed-memory
// nondeterminism: which thread steps next, and which visible message a
// relaxed/acquire read observes.
//
// Threads run as runtime coroutines (iter.Pull) in strict lockstep with
// the scheduler: a thread body runs only inside the controller's call to
// its next(), and hands control back by yielding at its next scheduling
// point, so exactly one thread is ever between "granted" and "parked", the
// shared memory needs no locking, and executions are deterministic
// functions of the strategy's decisions (enabling replay and exhaustive
// exploration).
package machine

import (
	"errors"
	"fmt"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// Program is a concurrent test program: a setup phase run by the main
// thread, N worker bodies run concurrently, and a final phase run by the
// main thread after all workers have finished (joining their views, as a
// pthread_join would).
type Program struct {
	Name    string
	Setup   func(*Thread)
	Workers []func(*Thread)
	Final   func(*Thread)
}

// Status classifies how an execution ended.
type Status uint8

const (
	// OK: the program ran to completion.
	OK Status = iota
	// Racy: a data race on a non-atomic access was detected (UB in ORC11).
	Racy
	// Budget: the step budget was exhausted (e.g. an unlucky spin loop);
	// the execution is discarded, it is neither a pass nor a violation.
	Budget
	// Failed: the program itself reported a failure via Thread.Failf.
	Failed
	// Pruned: sleep-set partial-order reduction proved every continuation
	// of the execution replays an equivalence class explored elsewhere, so
	// the run was cut short (only under Runner.POR). Neither a pass nor a
	// violation: the outcomes of its continuations are all observed in
	// sibling subtrees, which is what keeps exhaustive outcome sets
	// identical with POR on and off.
	Pruned
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Racy:
		return "racy"
	case Budget:
		return "budget"
	case Failed:
		return "failed"
	case Pruned:
		return "pruned"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Result is the outcome of one execution.
type Result struct {
	Status  Status
	Err     error
	Mem     *memory.Memory
	Steps   int
	Outcome map[string]int64 // values reported by Thread.Report
	// Events is the typed per-step operation log (only when Runner.Trace
	// is set). Use Trace() for the legacy string rendering.
	Events []StepEvent
}

// Trace renders the recorded events as the legacy human-readable
// per-step lines (one string per traced operation).
func (r *Result) Trace() []string {
	if len(r.Events) == 0 {
		return nil
	}
	out := make([]string, len(r.Events))
	for i, e := range r.Events {
		out[i] = e.String()
	}
	return out
}

// Strategy resolves scheduling and read nondeterminism. Implementations
// must be deterministic given their own state so executions can be
// replayed.
type Strategy interface {
	// PickThread picks the next thread to step among the runnable ones
	// (indices into the program's thread list; 0 is the main thread).
	// Called only when len(runnable) > 1. The slice is scheduler scratch,
	// valid only for the duration of the call.
	PickThread(runnable []int) int
	// Choose picks among n > 1 visible messages for a read.
	Choose(n int) int
}

// abort is the panic payload used to unwind a thread on race/budget/kill.
type abort struct {
	status Status
	err    error
}

// killed is the panic payload that unwinds a parked thread when the run
// is torn down (its yield returned false).
type killed struct{}

// Thread is the handle through which program code accesses the simulated
// memory. All methods are scheduling points.
type Thread struct {
	id int
	tv *memory.ThreadView
	mc *controller
	// Coroutine plumbing (see Runner.Run): yield parks the thread and
	// reports false once the run is being torn down; next resumes it until
	// its next park (false once the body has returned); stop unwinds it.
	// exit is the abort that ended the body, if any.
	yield func(int) bool
	next  func() (int, bool)
	stop  func()
	exit  *abort
}

// ID returns the thread's index: 0 for the main thread, 1..N for workers.
func (t *Thread) ID() int { return t.id }

// TV exposes the underlying ORC11 thread view (used by the event-graph
// recorder to snapshot and extend clocks at commit points).
func (t *Thread) TV() *memory.ThreadView { return t.tv }

// step parks the thread until the scheduler grants it its next event. op
// describes the operation the thread will perform once granted; under
// partial-order reduction the controller consults it to decide which
// pending steps commute. The write to pending happens-before the
// controller's read: yield switches control to the controller directly.
func (t *Thread) step(op memory.Access) {
	if t.mc.por != POROff {
		t.mc.pending[t.id] = op
	}
	if !t.yield(evRequest) {
		panic(killed{})
	}
	t.mc.steps++
	if t.mc.steps > t.mc.budget {
		panic(abort{status: Budget, err: errors.New("step budget exhausted")})
	}
}

// Alloc allocates a fresh named location initialized to init.
func (t *Thread) Alloc(name string, init int64) view.Loc {
	t.step(memory.Access{Kind: memory.AccAlloc})
	l := t.mc.mem.Alloc(t.tv, name, init)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepAlloc, Loc: l, LocName: name, Val: init})
	}
	return l
}

// Read loads from l with the given access mode.
func (t *Thread) Read(l view.Loc, mode memory.Mode) int64 {
	t.step(memory.Access{Kind: memory.AccRead, Loc: l})
	v, err := t.mc.mem.ReadFloored(t.tv, l, mode, &t.mc.reads, t.takeFloor(l, mode))
	if err != nil {
		if t.mc.tracing {
			t.mc.record(StepEvent{Thread: t.id, Kind: StepRead, Loc: l, LocName: t.mc.mem.Name(l), RMode: mode, Race: true})
		}
		panic(abort{status: Racy, err: err})
	}
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepRead, Loc: l, LocName: t.mc.mem.Name(l), RMode: mode, Val: v})
	}
	return v
}

// takeFloor consumes the thread's pending source-DPOR wakeup constraint,
// if any (see controller.sourceWake): the read about to execute is the
// announced operation the floor was attached to. It also accounts the
// stale read-value branches the floor prunes.
//
//compass:accounting
func (t *Thread) takeFloor(l view.Loc, mode memory.Mode) view.Time {
	c := t.mc
	if c.por != PORSource {
		return 0
	}
	f := c.floors[t.id]
	if f == 0 {
		return 0
	}
	c.floors[t.id] = 0
	if mode == memory.NA {
		return 0 // na reads never branch on a message choice
	}
	lo := t.tv.Cur.V.Get(l)
	if lo == 0 {
		lo = 1
	}
	eff := f
	if m := c.mem.MaxTime(l); eff > m {
		eff = m
	}
	if eff > lo {
		c.stats.PORStaleReadsSkipped(int64(eff - lo))
	}
	return f
}

// Write stores v to l with the given access mode.
func (t *Thread) Write(l view.Loc, v int64, mode memory.Mode) {
	t.step(memory.Access{Kind: memory.AccWrite, Loc: l})
	if err := t.mc.mem.Write(t.tv, l, v, mode); err != nil {
		if t.mc.tracing {
			t.mc.record(StepEvent{Thread: t.id, Kind: StepWrite, Loc: l, LocName: t.mc.mem.Name(l), WMode: mode, Race: true})
		}
		panic(abort{status: Racy, err: err})
	}
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepWrite, Loc: l, LocName: t.mc.mem.Name(l), WMode: mode, Val: v})
	}
}

// Free deallocates a location; any later access by any thread is
// use-after-free, aborting the execution as undefined behaviour.
func (t *Thread) Free(l view.Loc) {
	t.step(memory.Access{Kind: memory.AccFree, Loc: l})
	if err := t.mc.mem.Free(t.tv, l); err != nil {
		panic(abort{status: Racy, err: err})
	}
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFree, Loc: l, LocName: t.mc.mem.Name(l)})
	}
}

// Fence issues a fence: acquire, release, or both.
func (t *Thread) Fence(acquire, release bool) {
	t.step(memory.Access{Kind: memory.AccFence})
	t.mc.mem.Fence(t.tv, acquire, release)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFence, Acquire: acquire, Release: release})
	}
}

// FenceSC issues a sequentially consistent fence (totally ordered with all
// other SC fences; forbids store-buffering between fenced accesses).
func (t *Thread) FenceSC() {
	t.step(memory.Access{Kind: memory.AccFence})
	t.mc.mem.FenceSC(t.tv)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFenceSC})
	}
}

// CAS atomically compares-and-swaps l from expected to newv. readMode
// governs the read side, writeMode the write side.
func (t *Thread) CAS(l view.Loc, expected, newv int64, readMode, writeMode memory.Mode) (int64, bool) {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, ok := t.updateChecked(l, func(o int64) (int64, bool) { return newv, o == expected }, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepCAS, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Arg: expected, Val: newv, Old: old, OK: ok})
	}
	return old, ok
}

// FetchAdd atomically adds d to l and returns the previous value.
func (t *Thread) FetchAdd(l view.Loc, d int64, readMode, writeMode memory.Mode) int64 {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, _ := t.updateChecked(l, func(o int64) (int64, bool) { return o + d, true }, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFAA, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Val: d, Old: old})
	}
	return old
}

// Exchange atomically swaps the value of l for v and returns the previous
// value.
func (t *Thread) Exchange(l view.Loc, v int64, readMode, writeMode memory.Mode) int64 {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, _ := t.updateChecked(l, func(int64) (int64, bool) { return v, true }, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepXchg, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Val: v, Old: old})
	}
	return old
}

// Update applies an arbitrary atomic read-modify-write.
func (t *Thread) Update(l view.Loc, f memory.UpdateFunc, readMode, writeMode memory.Mode) (int64, bool) {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, wrote := t.updateChecked(l, f, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepUpdate, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Old: old, OK: wrote})
	}
	return old, wrote
}

// updateChecked converts a UAFError panic from the memory's RMW path into
// an execution abort.
func (t *Thread) updateChecked(l view.Loc, f memory.UpdateFunc, readMode, writeMode memory.Mode) (int64, bool) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(*memory.UAFError); ok {
				panic(abort{status: Racy, err: e})
			}
			panic(p)
		}
	}()
	return t.mc.mem.Update(t.tv, l, f, readMode, writeMode)
}

// Yield is a pure scheduling point (no memory effect). Spin loops should
// yield so other threads can make progress under any strategy.
func (t *Thread) Yield() {
	t.step(memory.Access{Kind: memory.AccNone})
}

// Report records a named outcome value for this execution (e.g. the value
// returned by a dequeue), for litmus-style outcome histograms.
func (t *Thread) Report(name string, v int64) {
	t.step(memory.Access{Kind: memory.AccReport, Name: name})
	t.mc.outcome[name] = v
}

// Failf aborts the execution, marking it Failed. Used by programs to
// report violated client-level assertions.
func (t *Thread) Failf(format string, args ...interface{}) {
	panic(abort{status: Failed, err: fmt.Errorf(format, args...)})
}

// Mem exposes the underlying memory (read-only use: histories, names).
func (t *Thread) Mem() *memory.Memory { return t.mc.mem }

// Values a thread yields to the controller when it parks.
const (
	evRequest = iota // thread wants to take its next step
	evSpawn          // main thread is ready for workers to start
)

type controller struct {
	mem     *memory.Memory
	strat   Strategy
	stats   *telemetry.Stats // nil when telemetry is disabled
	reads   readChooser      // constructed once per run, not per Read
	steps   int
	budget  int
	outcome map[string]int64
	trace   []StepEvent // per-step op log (only when tracing is enabled)
	tracing bool
	// Partial-order reduction state (only when por != POROff).
	// pending[tid] is the operation thread tid announced at its last park;
	// sleep is a bitmask of parked threads whose pending operation commutes
	// with every operation executed since they were last a scheduling
	// candidate, so granting them now would only replay an interleaving
	// that an explored sibling branch covers. Under PORSleep sleepers wake
	// on the static memory.Independent oracle; under PORSource they wake
	// only on dynamic conflicts (sourceWake), possibly carrying a read
	// floor in floors[tid] that restricts their next read to the messages
	// appended since they slept. All of it evolves as a deterministic
	// function of the decision sequence, which is what lets the
	// prefix-replay explorers reproduce it branch for branch.
	por      PORMode
	pending  []memory.Access
	sleep    uint64
	awake    []int // scratch for porCandidates, reused across grants
	floors   []view.Time
	doneMask uint64 // finished threads (valid while por != POROff, so <= 64 threads)
	wakes    int    // source-mode wake events this run (wakeup-tree size)
	// plan is the static access-plan oracle (only under PORSource with a
	// matching Runner.Plan); nil means no static knowledge.
	plan *memory.PlanOracle
}

// porCandidates filters the runnable threads down to those not asleep and
// records the reduction telemetry. A nil result means every runnable
// thread is asleep: each pending step commutes with everything since that
// thread was last a candidate, so every continuation of this state
// replays an equivalence class that an explored sibling subtree covers —
// the classic sleep-set prune point. The caller cuts the run as Pruned.
//
//compass:accounting
func (c *controller) porCandidates(runnable []int) []int {
	awake := c.awake[:0]
	for _, tid := range runnable {
		if c.sleep&(1<<uint(tid)) == 0 {
			awake = append(awake, tid)
		}
	}
	c.awake = awake
	if len(runnable) > 1 {
		c.stats.PORSchedulePoint(len(runnable)-max(len(awake), 1), sleepSize(c.sleep))
	}
	if len(awake) == 0 {
		return nil
	}
	return awake
}

// porCommit updates the sleep set after the scheduler granted cand[idx]:
// candidates ordered before it are explored (or will be, under the
// explorers' in-order sibling enumeration) as sibling branches of this
// very decision, so within this branch their next step goes to sleep;
// then the granted thread's operation wakes every sleeper whose pending
// operation does not commute with it. Sleep-set theory (Godefroid)
// guarantees the pruned tree still reaches every reachable state of the
// full tree, hence every terminal outcome; only the number of
// interleavings shrinks.
func (c *controller) porCommit(cand []int, idx int) {
	for _, u := range cand[:idx] {
		c.sleep |= 1 << uint(u)
	}
	pick := cand[idx]
	if c.sleep != 0 {
		op := c.pending[pick]
		for u := range c.pending {
			if c.sleep&(1<<uint(u)) == 0 {
				continue
			}
			if c.por == PORSource {
				c.sourceWake(u, op)
			} else if !memory.Independent(c.pending[u], op) {
				c.sleep &^= 1 << uint(u)
			}
		}
	}
	c.sleep &^= 1 << uint(pick)
}

// sleepSize counts the threads currently asleep.
func sleepSize(mask uint64) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		n++
	}
	return n
}

// record appends a typed event to the execution trace, stamping the
// current step index. Callers must guard with c.tracing so disabled
// tracing costs nothing.
func (c *controller) record(e StepEvent) {
	e.Step = c.steps
	c.trace = append(c.trace, e)
}

// readChooser validates the strategy's read choices and records the
// fanout/staleness telemetry. One value lives on the controller for the
// whole run so the per-Read chooser lookup allocates nothing.
type readChooser struct {
	strat Strategy
	stats *telemetry.Stats
}

func (rc *readChooser) Choose(n int) int {
	i := rc.strat.Choose(n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("machine: strategy chose %d of %d", i, n))
	}
	rc.stats.ReadChoice(n, i)
	return i
}

// Runner executes programs.
type Runner struct {
	// Budget is the maximum number of machine steps per execution
	// (default 100000).
	Budget int
	// Trace records a typed per-step operation log into the Result (for
	// diagnosing counterexamples; costs time and memory).
	Trace bool
	// Stats, when non-nil, receives step-level telemetry (thread picks,
	// read-choice fanout, stale reads). Execution-level counters
	// (ExecDone) are recorded by whichever layer accounts for results —
	// the explorer or the check harness — so that telemetry totals always
	// agree with reported totals even when parallel workers overshoot an
	// early stop. Safe to share one Stats across concurrent Runners.
	Stats *telemetry.Stats
	// POR selects the partial-order reduction mode. PORSleep excludes
	// from scheduling any thread whose pending operation commutes with
	// everything executed since it was last a candidate (see
	// memory.Independent); PORSource additionally wakes sleepers only on
	// dynamically observed conflicts and prunes stale read-value branches
	// via wakeup read floors (see PORMode). Either way the set of
	// reachable outcomes is unchanged; the number of executions needed to
	// cover it shrinks, and under the exhaustive explorers Complete still
	// means every outcome of the bounded program was observed. Programs
	// with more than 63 workers fall back to full exploration (the sleep
	// set is a 64-bit mask); the fallback bumps the por_disabled_threads
	// counter and fires the SetPORFallbackWarn hook.
	POR PORMode
	// Plan, when non-nil, is a static access plan (extracted by
	// internal/analysis/staticplan) consulted only under PORSource, and
	// only when its Program matches the program's name (anonymous
	// programs trust the caller's pairing): the plan oracle
	// refutes conservative dynamic conflict verdicts before a sleeper is
	// woken, and proves pending reads/writes invisible (no other live
	// thread's may-set conflicts with them) so they form singleton
	// persistent sets. The plan is a may-over-approximation, so
	// consulting it never loses a reachable outcome; with Plan nil the
	// explorer behaves bit-identically to the plan-less one.
	Plan *memory.Plan
}

// Run executes prog under the given strategy and returns the result.
// Run is the lockstep scheduler: the only place simulator threads are
// created, each as a coroutine (see pull) that runs only inside the
// controller's call to its next() and parks by yielding at its next
// scheduling point. Before Run returns, every thread still parked is
// stopped, which unwinds it through a killed panic, so no coroutine
// outlives the execution. A panic in Setup, a worker or Final other than
// the machine's own aborts (Failf, races, budget) is re-raised in Run's
// caller with the original value, after the other threads are unwound.
//
//compass:scheduler
//compass:accounting
func (r *Runner) Run(prog Program, strat Strategy) *Result {
	budget := r.Budget
	if budget <= 0 {
		budget = 100000
	}
	nw := len(prog.Workers)
	por := r.POR
	if por != POROff && nw+1 > 64 {
		// The sleep set is a 64-bit mask: too many threads means running
		// unreduced. Formerly silent; now counted and warned about once.
		por = POROff
		r.Stats.PORDisabled()
		porFallbackWarn(nw + 1)
	}
	c := &controller{
		mem:     memory.New(),
		strat:   strat,
		stats:   r.Stats,
		reads:   readChooser{strat: strat, stats: r.Stats},
		budget:  budget,
		outcome: map[string]int64{},
		tracing: r.Trace,
		por:     por,
	}
	if c.por != POROff {
		c.pending = make([]memory.Access, nw+1)
		c.awake = make([]int, 0, nw+1)
	}
	if c.por == PORSource {
		c.floors = make([]view.Time, nw+1)
		if r.Plan != nil && (prog.Name == "" || r.Plan.Program == prog.Name) {
			c.plan = memory.NewPlanOracle(r.Plan, c.mem)
		}
	}

	mainTV := memory.NewThreadView(0)
	threads := make([]*Thread, nw+1)
	threads[0] = &Thread{id: 0, tv: mainTV, mc: c}
	for i := 1; i <= nw; i++ {
		threads[i] = &Thread{id: i, mc: c} // tv filled at spawn time
	}
	workers := threads[1:]
	defer func() {
		for _, t := range threads {
			if t.stop != nil {
				t.stop()
			}
		}
	}()

	// spawn makes t a coroutine running body. The wrapper records an abort
	// in t.exit and swallows a teardown kill, so next() reports both as a
	// finished thread; any other panic propagates through next().
	spawn := func(t *Thread, body func(*Thread)) {
		t.next, t.stop = pull(func(yield func(int) bool) {
			t.yield = yield
			defer func() {
				if p := recover(); p != nil {
					switch a := p.(type) {
					case abort:
						t.exit = &a
					case killed:
						// the controller is tearing the run down
					default:
						panic(p)
					}
				}
			}()
			body(t)
		})
	}

	// Main thread body: setup, spawn workers, wait, final.
	spawn(threads[0], func(t *Thread) {
		if prog.Setup != nil {
			prog.Setup(t)
		}
		// Setup is over. Signal the controller to start the workers; park
		// until they all finish (the controller re-grants main afterwards).
		if !t.yield(evSpawn) {
			panic(killed{})
		}
		if prog.Final != nil {
			prog.Final(t)
		}
	})

	// Controller.
	type tstate uint8
	const (
		computing tstate = iota // between grant and next park
		parked                  // waiting for a grant
		blocked                 // main waiting for workers
		done                    // finished or aborted
		unstarted
	)
	states := make([]tstate, nw+1)
	for i := 1; i <= nw; i++ {
		states[i] = unstarted
	}
	runBuf := make([]int, 0, nw+1) // runnable-thread scratch, reused per decision
	var final *Result
	finish := func(st Status, err error) {
		final = &Result{Status: st, Err: err, Mem: c.mem, Steps: c.steps, Outcome: c.outcome, Events: c.trace}
		if c.por == PORSource {
			// One histogram sample per execution: how many race reversals
			// (wakes) this run's wakeup bookkeeping carried.
			c.stats.PORRunWakeups(c.wakes)
		}
	}
	// grant runs thread tid until it parks again, finishes or aborts.
	grant := func(tid int) {
		t := threads[tid]
		states[tid] = computing
		ev, ok := t.next()
		switch {
		case t.exit != nil:
			finish(t.exit.status, t.exit.err)
		case !ok:
			states[tid] = done
			if c.por != POROff {
				c.doneMask |= 1 << uint(tid)
			}
			if tid == 0 {
				finish(OK, nil)
			}
		case ev == evSpawn:
			states[0] = blocked
			// Fork the views now (main is parked and won't move); the
			// workers themselves start one at a time below.
			for i, w := range workers {
				w.tv = mainTV.Fork(i + 1)
			}
			if nw == 0 {
				states[0] = parked // will be resumed below
			}
		default:
			states[tid] = parked
		}
	}

	grant(0)
	started := 0
	for final == nil {
		if states[0] == blocked {
			// Start the next worker, serially in thread order: it computes
			// alone until its first park, preserving the one-thread-at-a-time
			// invariant without adding decision points.
			if started < nw {
				started++
				spawn(threads[started], prog.Workers[started-1])
				grant(started)
				continue
			}
			// If the workers are all done, join their views and resume main.
			allDone := true
			for _, s := range states[1:] {
				if s != done {
					allDone = false
				}
			}
			if allDone {
				for _, w := range workers {
					mainTV.JoinClock(w.tv.Cur)
				}
				grant(0)
				continue
			}
		}
		// Pick a parked thread to grant.
		runnable := runnable(runBuf, states, int(parked))
		if len(runnable) == 0 {
			finish(Failed, errors.New("machine: deadlock (no runnable thread)"))
			break
		}
		cand := runnable
		if c.por != POROff {
			if cand = c.porCandidates(runnable); cand == nil {
				finish(Pruned, nil)
				break
			}
			if c.por == PORSource && len(cand) > 1 {
				if i := c.forceInvisible(cand); i >= 0 {
					cand = cand[i : i+1]
				}
			}
		}
		idx := 0
		if len(cand) > 1 {
			idx = strat.PickThread(cand)
		}
		pick := cand[idx]
		if c.por != POROff {
			c.porCommit(cand, idx)
		}
		c.stats.ThreadPick(pick)
		grant(pick)
	}
	return final
}

// runnable appends to dst[:0] the indices of the threads in state parked.
func runnable[T ~uint8](dst []int, states []T, parked int) []int {
	out := dst[:0]
	for i, s := range states {
		if int(s) == parked {
			out = append(out, i)
		}
	}
	return out
}
