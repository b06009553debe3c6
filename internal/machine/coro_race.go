//go:build race

package machine

import (
	"iter"
	"runtime"
)

// pull is iter.Pull's contract on a goroutine and two unbuffered channels.
// Under the race detector a coroutine started by iter.Pull never releases
// its race-runtime thread state (runtime.coroexit bypasses racegoend),
// about 6 KiB per coroutine, so a race-enabled test suite running millions
// of executions runs out of memory. Race builds therefore drive thread
// bodies through this handoff instead: the scheduler code is the same, and
// every access it hands from one thread to another is still ordered by a
// channel operation the detector sees.
//
//compass:scheduler
func pull(seq iter.Seq[int]) (next func() (int, bool), stop func()) {
	var (
		resume     = make(chan bool) // false: yield must report teardown
		parked     = make(chan struct{})
		v          int
		ok         bool
		started    bool
		done       bool
		panicValue any
		goexit     bool
	)
	run := func() {
		returned := false
		defer func() {
			if p := recover(); p != nil {
				panicValue = p
			} else if !returned {
				goexit = true
			}
			done = true
			parked <- struct{}{}
		}()
		seq(func(x int) bool {
			if done {
				return false
			}
			v, ok = x, true
			parked <- struct{}{}
			return <-resume
		})
		v, ok, returned = 0, false, true
	}
	wait := func() {
		<-parked
		if goexit {
			runtime.Goexit()
		}
		if panicValue != nil {
			panic(panicValue)
		}
	}
	next = func() (int, bool) {
		if done {
			return 0, false
		}
		if started {
			resume <- true
		} else {
			started = true
			go run()
		}
		wait()
		return v, ok
	}
	stop = func() {
		if done {
			return
		}
		done = true
		if started {
			resume <- false
			wait()
		}
	}
	return next, stop
}
