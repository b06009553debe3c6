//go:build !race

package machine

import "iter"

// pull starts a thread coroutine (see Runner.Run). Race builds replace it
// with a goroutine-backed equivalent; see coro_race.go.
//
//compass:scheduler
func pull(seq iter.Seq[int]) (next func() (int, bool), stop func()) {
	return iter.Pull(seq)
}
