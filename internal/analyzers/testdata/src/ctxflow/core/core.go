// Package core is the ctxflow fixture: functions that accept a
// context.Context and either thread it into their callees (clean) or
// detach from the caller by substituting context.Background() or never
// consulting the context at all (findings).
package core

import (
	"context"

	"ctxflow/pfs"
)

// loadGood threads the caller's context into the blocking read.
func loadGood(ctx context.Context, p []byte) (int, error) {
	return pfs.ReadAtContext(ctx, p, 0)
}

// loadBackground checks its context once, then hands a fresh root context
// to the blocking read: the caller's cancellation never reaches the wait.
func loadBackground(ctx context.Context, p []byte) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return pfs.ReadAtContext(context.Background(), p, 0) // want `hands context\.Background to pfs\.ReadAtContext`
}

// loadDropped receives a context it never consults.
func loadDropped(ctx context.Context) { // want `loadDropped receives a context it never uses`
	pfs.Wait()
}

// spin has no context parameter: out of scope.
func spin() {
	pfs.Wait()
}

// loadTransitive waits only through the local helper; the unused-context
// rule does not care what the body calls.
func loadTransitive(ctx context.Context) { // want `loadTransitive receives a context it never uses`
	spin()
}

// loadDetached documents a deliberate detach (warm-up readahead) with the
// auditable waiver.
//
//batlint:ignore ctxflow warm-up readahead is deliberately detached from the query's lifetime
func loadDetached(ctx context.Context) {
	pfs.Wait()
}

// pureCompute has no use for the context an interface forces on it, and
// says so by leaving the parameter blank.
func pureCompute(_ context.Context, xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// rootCaller has no context parameter of its own, so starting from
// context.Background is the only choice: out of scope by construction.
func rootCaller(p []byte) (int, error) {
	return pfs.ReadAtContext(context.Background(), p, 0)
}

// blankCtx declares, visibly in its signature, that cancellation ends
// here: blank parameters are exempt.
func blankCtx(_ context.Context) {
	pfs.Wait()
}
