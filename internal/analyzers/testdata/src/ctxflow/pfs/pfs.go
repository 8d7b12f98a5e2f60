// Package pfs is the callee fixture for ctxflow: a cancellation-aware read
// and a legacy wait with no context parameter, the way the real storage
// layer has both.
package pfs

import (
	"context"
	"time"
)

// ReadAtContext models the cancellation-aware read: it consults its
// context, so it is clean under ctxflow itself.
func ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	default:
	}
	time.Sleep(time.Microsecond)
	return len(p), nil
}

// Wait models a legacy blocking call with no context parameter.
func Wait() {
	time.Sleep(time.Microsecond)
}
