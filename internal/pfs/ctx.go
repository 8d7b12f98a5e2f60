// Context plumbing for the storage layer. Storage and File are kept free
// of context parameters (most backends cannot abort a syscall mid-flight
// anyway); instead, backends that CAN honor cancellation — the fault
// injector's stalls and delays — implement
// the optional CtxOpener/CtxReaderAt interfaces, and callers go through
// OpenContext/ReadAtContext, which fall back to a plain call after a
// before-call deadline check. The resulting model: ctx-aware backends
// abort promptly even mid-operation; plain backends are checked between
// operations.
package pfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"
)

// CtxReaderAt is the optional context-aware extension of io.ReaderAt.
// Implementations must abort (returning ctx.Err()) when ctx ends while the
// read is blocked, and must behave identically to ReadAt otherwise.
type CtxReaderAt interface {
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
}

// CtxOpener is the optional context-aware extension of Storage.Open.
type CtxOpener interface {
	OpenCtx(ctx context.Context, name string) (File, error)
}

// ReadAtContext reads through r honoring ctx: a CtxReaderAt gets the
// context (and may abort mid-read); any other reader is guarded by a
// before-call check so a canceled caller stops issuing new reads.
func ReadAtContext(ctx context.Context, r io.ReaderAt, p []byte, off int64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if cr, ok := r.(CtxReaderAt); ok {
		return cr.ReadAtCtx(ctx, p, off)
	}
	return r.ReadAt(p, off)
}

// ReadFullAt reads all of p at off through ReadAtContext. A read that fills
// p succeeds even when it reports io.EOF (p ends where the source does). A
// shorter one fails: with the reader's own error when that is not io.EOF,
// otherwise with an error wrapping both io.ErrUnexpectedEOF and io.EOF.
// Every storage read whose bytes are then checksummed goes through here,
// so a torn read is reported as one, never as a CRC mismatch over the
// buffer's unread zeros.
func ReadFullAt(ctx context.Context, r io.ReaderAt, p []byte, off int64) error {
	n, err := ReadAtContext(ctx, r, p, off)
	if err == nil || err == io.EOF {
		if n == len(p) {
			return nil
		}
		return fmt.Errorf("got %d of %d bytes at offset %d: %w (%w)", n, len(p), off, io.ErrUnexpectedEOF, io.EOF)
	}
	return err
}

// OpenContext opens name through s honoring ctx, with the same contract as
// ReadAtContext.
func OpenContext(ctx context.Context, s Storage, name string) (File, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if co, ok := s.(CtxOpener); ok {
		return co.OpenCtx(ctx, name)
	}
	return s.Open(name)
}

// SleepContext sleeps for d or until ctx ends, whichever comes first,
// returning ctx.Err() when interrupted. This is the interruptible
// replacement for time.Sleep in any code that holds a context (batlint's
// ctxsleep analyzer enforces it).
func SleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// IsContextErr reports whether err is (or wraps) a cancellation or
// deadline error: the caller asked to stop, as opposed to the operation
// failing.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
