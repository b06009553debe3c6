// Package detnondet is the golden corpus for the detnondet analyzer:
// each `// want` line must be flagged, everything else must stay silent.
package detnondet

import (
	"iter"
	"math/rand"
	"sort"
	"time"
)

func clocks() time.Duration {
	start := time.Now()      // want `call to time.Now: wall-clock reads`
	time.Sleep(0)            // ok: does not read the clock
	return time.Since(start) // want `call to time.Since: wall-clock reads`
}

func globalRand() int {
	n := rand.Intn(4)                  // want `global math/rand Intn: the process-global stream breaks replay`
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand Shuffle`
	return n
}

func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // ok: explicitly seeded
	return rng.Intn(4)                    // ok: method on the seeded generator
}

func mapOrder(m map[int]int) []int {
	var out []int
	for k := range m { // want `iteration over map: order is nondeterministic`
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// mapSum folds a commutative operation over the map, so visit order
// cannot be observed.
//
//compass:orderinsensitive
func mapSum(m map[int]int) int {
	total := 0
	for _, v := range m { // ok: function is marked order-insensitive
		total += v
	}
	return total
}

func spawn(done chan struct{}) {
	go func() { close(done) }() // want `goroutine spawned outside the scheduler`
}

// schedule is the sanctioned spawn point standing in for the lockstep
// scheduler.
//
//compass:scheduler
func schedule(done chan struct{}) {
	go func() { close(done) }() // ok: the scheduler itself
}

func count(yield func(int) bool) {
	for i := 0; yield(i); i++ {
	}
}

func pull() {
	next, stop := iter.Pull(count) // want `coroutine started by iter.Pull outside the scheduler`
	defer stop()
	next()
	_, stop2 := iter.Pull2[int, int](func(yield func(int, int) bool) {}) // want `coroutine started by iter.Pull2 outside the scheduler`
	stop2()
}

// scheduleCoroutine stands in for the lockstep scheduler's coroutine
// constructor.
//
//compass:scheduler
func scheduleCoroutine() {
	next, stop := iter.Pull(count) // ok: the scheduler itself
	defer stop()
	next()
}

func sliceRange(xs []int) int {
	total := 0
	for _, v := range xs { // ok: slice iteration is ordered
		total += v
	}
	return total
}
