// Facade tests: the public API surface exercised end to end, the way a
// downstream user would.
package compass_test

import (
	"strings"
	"testing"

	"compass"
)

func TestQuickstartFlow(t *testing.T) {
	var q compass.Queue
	prog := compass.Program{
		Setup: func(th *compass.Thread) { q = compass.NewMSQueue(th, "q") },
		Workers: []func(*compass.Thread){
			func(th *compass.Thread) {
				q.Enqueue(th, 41)
				q.Enqueue(th, 42)
			},
			func(th *compass.Thread) {
				for i := 0; i < 3; i++ {
					q.TryDequeue(th)
				}
			},
		},
	}
	res := (&compass.Runner{}).Run(prog, compass.NewRandomStrategy(7))
	if res.Status != compass.StatusOK {
		t.Fatalf("status %v: %v", res.Status, res.Err)
	}
	g := q.Recorder().Graph()
	if len(g.Events()) < 2 {
		t.Fatalf("graph too small: %s", g)
	}
	r := compass.CheckQueue(g, compass.LevelAbsHB)
	if !r.OK() {
		t.Fatalf("violations: %v", r.Violations)
	}
}

func TestAllLibraryConstructors(t *testing.T) {
	prog := compass.Program{
		Workers: []func(*compass.Thread){func(th *compass.Thread) {
			qs := []compass.Queue{
				compass.NewMSQueue(th, "ms"),
				compass.NewMSQueueFenced(th, "msf"),
				compass.NewHWQueue(th, "hw", 8),
				compass.NewSCQueue(th, "sc", 8),
			}
			for _, q := range qs {
				q.Enqueue(th, 5)
				if v, ok := q.TryDequeue(th); !ok || v != 5 {
					th.Failf("queue round trip = %d, %v", v, ok)
				}
			}
			ss := []compass.Stack{
				compass.NewTreiberStack(th, "trb"),
				compass.NewSCStack(th, "scs", 8),
				compass.NewElimStack(th, "es"),
			}
			for _, s := range ss {
				s.Push(th, 7)
				if v, ok := s.Pop(th); !ok || v != 7 {
					th.Failf("stack round trip = %d, %v", v, ok)
				}
			}
			d := compass.NewWorkStealingDeque(th, "wsq", 8)
			d.PushBottom(th, 9)
			if v, ok := d.TakeBottom(th); !ok || v != 9 {
				th.Failf("deque round trip = %d, %v", v, ok)
			}
			x := compass.NewExchanger(th, "x")
			if r := x.Exchange(th, 3, 1); r != compass.ExFail {
				th.Failf("lone exchange = %d", r)
			}
		}},
	}
	res := (&compass.Runner{}).Run(prog, compass.NewRandomStrategy(1))
	if res.Status != compass.StatusOK {
		t.Fatalf("status %v: %v", res.Status, res.Err)
	}
}

func TestRunCheckedAndClients(t *testing.T) {
	ms := func(th *compass.Thread) compass.Queue { return compass.NewMSQueue(th, "q") }
	for name, build := range map[string]func() compass.Checked{
		"mixed": compass.QueueMixedWorkload(ms, compass.LevelHB, 1, 2, 1, 2),
		"mp":    compass.MPQueueClient(ms, compass.LevelHB, true),
		"spsc":  compass.SPSCClient(ms, compass.LevelHB, 4),
	} {
		rep := compass.RunChecked(name, build, compass.CheckOptions{Executions: 50})
		if !rep.Passed() {
			t.Fatalf("%s: %s", name, rep)
		}
	}
}

func TestRunExhaustiveFacade(t *testing.T) {
	ms := func(th *compass.Thread) compass.Queue { return compass.NewMSQueue(th, "q") }
	rep := compass.RunChecked("tiny", compass.QueueMixedWorkload(ms, compass.LevelAbsHB, 1, 1, 1, 1),
		compass.CheckOptions{Mode: compass.ModeExhaustive, MaxRuns: 100000, Budget: 2000})
	if !rep.Passed() || !rep.Complete {
		t.Fatalf("%s", rep)
	}
}

func TestLitmusFacade(t *testing.T) {
	suite := compass.LitmusSuite()
	if len(suite) < 8 {
		t.Fatalf("suite size = %d", len(suite))
	}
	res := compass.RunLitmus(suite[0], 400000)
	if !res.OK() {
		t.Fatalf("%s", res)
	}
	if !strings.Contains(res.String(), "PASS") {
		t.Fatalf("rendering: %s", res)
	}
}

func TestSeenFacade(t *testing.T) {
	var q compass.Queue
	prog := compass.Program{
		Setup: func(th *compass.Thread) { q = compass.NewMSQueue(th, "q") },
		Workers: []func(*compass.Thread){func(th *compass.Thread) {
			q.Enqueue(th, 1)
			if compass.Seen(th).Len() != 1 {
				th.Failf("Seen = %v", compass.Seen(th))
			}
		}},
	}
	res := (&compass.Runner{}).Run(prog, compass.NewRandomStrategy(1))
	if res.Status != compass.StatusOK {
		t.Fatalf("status %v: %v", res.Status, res.Err)
	}
}

func TestBuggyVariantsExported(t *testing.T) {
	f := func(th *compass.Thread) compass.Queue {
		return compass.NewMSQueueBuggyRelaxedLink(th, "q")
	}
	rep := compass.RunChecked("buggy",
		compass.QueueMixedWorkload(f, compass.LevelHB, 2, 3, 2, 4),
		compass.CheckOptions{Executions: 400, StaleBias: 0.6})
	if rep.Passed() {
		t.Fatal("the broken variant must be caught")
	}
}
