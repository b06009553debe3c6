package machine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"compass/internal/memory"
	"compass/internal/view"
)

// spinWorker yields forever: at any abort it is parked mid-body.
func spinWorker(th *Thread) {
	for {
		th.Yield()
	}
}

// waitGoroutines fails t unless the goroutine count falls back to base.
// Every thread is unwound before Run returns; the grace period covers a
// race build's thread goroutine (coro_race.go), which exits just after
// its final handoff.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after the runs, %d before: parked threads were not unwound", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTeardownUnwindsParkedThreads ends executions in every non-OK status
// while other threads are still parked, and checks that no coroutine
// outlives its execution.
func TestTeardownUnwindsParkedThreads(t *testing.T) {
	const runs = 1000
	cases := []struct {
		name   string
		runner Runner
		prog   func() Program
		strat  func(i int) Strategy
		want   Status
	}{
		{
			name:   "budget",
			runner: Runner{Budget: 50},
			prog: func() Program {
				return Program{Workers: []func(*Thread){spinWorker, spinWorker}}
			},
			strat: func(i int) Strategy { return NewRandom(int64(i)) },
			want:  Budget,
		},
		{
			name: "racy",
			prog: func() Program {
				var x view.Loc
				return Program{
					Setup: func(th *Thread) { x = th.Alloc("x", 0) },
					Workers: []func(*Thread){
						func(th *Thread) { th.Write(x, 1, memory.NA) },
						func(th *Thread) { th.Write(x, 2, memory.NA) },
						spinWorker,
					},
				}
			},
			strat: func(i int) Strategy { return NewRandom(int64(i)) },
			want:  Racy,
		},
		{
			name: "failed",
			prog: func() Program {
				return Program{Workers: []func(*Thread){
					func(th *Thread) { th.Yield(); th.Failf("boom") },
					spinWorker,
				}}
			},
			strat: func(i int) Strategy { return NewRandom(int64(i)) },
			want:  Failed,
		},
		{
			// Picking worker 2 first puts worker 1 to sleep; its write to
			// x commutes with everything worker 2 does, so once worker 2
			// finishes the only runnable thread is asleep.
			name:   "pruned",
			runner: Runner{POR: PORSleep},
			prog:   disjointProgram,
			strat:  func(int) Strategy { return ReplayStrategy([]Decision{{N: 2, Pick: 1}}) },
			want:   Pruned,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < runs; i++ {
				r := tc.runner.Run(tc.prog(), tc.strat(i))
				if r.Status != tc.want {
					t.Fatalf("run %d: status %v (err %v), want %v", i, r.Status, r.Err, tc.want)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// TestPanicPropagatesToCaller checks that a plain panic in program code
// is re-raised by Run in the caller with the original value, and that the
// other threads are unwound rather than leaked.
func TestPanicPropagatesToCaller(t *testing.T) {
	errBoom := errors.New("boom")
	explode := func(th *Thread) { th.Yield(); panic(errBoom) }
	cases := map[string]Program{
		"setup":  {Setup: explode, Workers: []func(*Thread){spinWorker}},
		"worker": {Workers: []func(*Thread){spinWorker, explode, spinWorker}},
		"final":  {Workers: []func(*Thread){func(th *Thread) { th.Yield() }}, Final: explode},
	}
	for name, prog := range cases {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				if p := runRecover(prog, int64(i)); p != errBoom {
					t.Fatalf("run %d: recovered %v, want %v", i, p, errBoom)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// runRecover runs prog and returns what Run panicked with (nil if it
// returned normally).
func runRecover(prog Program, seed int64) (p any) {
	defer func() { p = recover() }()
	(&Runner{Budget: 1000}).Run(prog, NewRandom(seed))
	return nil
}

// BenchmarkSchedulerHandoff measures the scheduler alone: two threads that
// only yield, so every machine step is one grant with no memory effect.
func BenchmarkSchedulerHandoff(b *testing.B) {
	const yields = 500
	body := func(th *Thread) {
		for i := 0; i < yields; i++ {
			th.Yield()
		}
	}
	prog := Program{Workers: []func(*Thread){body, body}}
	grants := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := (&Runner{}).Run(prog, NewRandom(int64(i)))
		if r.Status != OK {
			b.Fatalf("status %v", r.Status)
		}
		grants += r.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(grants), "ns/grant")
}
