//go:build go1.23

package mpi

import "iter"

// newCoro wraps body as a coroutine: next runs body until it yields or
// returns, on the caller's thread, and stop makes a pending yield return
// false. It needs Go 1.23's iter.Pull; go.mod stays at go 1.22 (see the
// README), so the tag lifts this file's language version alone.
func newCoro(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
