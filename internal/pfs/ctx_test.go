package pfs

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"libbat/internal/obs"
)

// TestFaultyStallRead: a stalled read blocks until the context deadline,
// returns ctx.Err(), and proceeds normally once released.
func TestFaultyStallRead(t *testing.T) {
	mem := NewMem()
	mem.WriteFile("leaf", []byte("hello world"))
	fau := NewFaulty(mem, FaultConfig{})
	f, err := fau.Open("leaf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fau.StallReads("leaf")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	buf := make([]byte, 5)
	start := time.Now()
	_, err = ReadAtContext(ctx, f, buf, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled read = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stalled read returned after %v, want ~the 50ms deadline", el)
	}
	if fau.Stalled() == 0 {
		t.Fatal("Stalled() = 0, want at least 1")
	}

	fau.ReleaseStalls()
	n, err := ReadAtContext(context.Background(), f, buf, 0)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("post-release read = %q, %v; want \"hello\", nil", buf[:n], err)
	}
}

// TestFaultyStallOpen: stalled opens are released the same way, and a
// context-free Open on a stalled name blocks until release.
func TestFaultyStallOpen(t *testing.T) {
	mem := NewMem()
	mem.WriteFile("leaf", []byte("x"))
	fau := NewFaulty(mem, FaultConfig{})
	fau.StallOpens("leaf")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := OpenContext(ctx, fau, "leaf"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled open = %v, want DeadlineExceeded", err)
	}

	done := make(chan error, 1)
	go func() {
		f, err := fau.Open("leaf") // context-free: blocks until release
		if f != nil {
			f.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("context-free open of a stalled name returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fau.ReleaseStalls()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-release open = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not unblock the stalled open")
	}
}

// TestFaultyDelays: latency injection is seeded (reproducible counts),
// bounded by the configured max, and interruptible via context.
func TestFaultyDelays(t *testing.T) {
	run := func() (int64, time.Duration) {
		mem := NewMem()
		mem.WriteFile("f", []byte("data"))
		fau := NewFaulty(mem, FaultConfig{
			Seed:          7,
			ReadDelayProb: 0.5,
			ReadDelay:     2 * time.Millisecond,
		})
		h, err := fau.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		buf := make([]byte, 4)
		start := time.Now()
		for i := 0; i < 50; i++ {
			if _, err := h.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		return fau.Delays(), time.Since(start)
	}
	d1, el := run()
	d2, _ := run()
	if d1 == 0 {
		t.Fatal("no delays injected at prob 0.5 over 50 reads")
	}
	if d1 != d2 {
		t.Fatalf("same seed injected %d then %d delays; want reproducible schedule", d1, d2)
	}
	// 50 reads x <=2ms: generous bound that still catches unbounded sleeps.
	if el > 30*time.Second {
		t.Fatalf("50 delayed reads took %v", el)
	}

	// A canceled context aborts an in-flight injected delay.
	mem := NewMem()
	mem.WriteFile("f", []byte("data"))
	fau := NewFaulty(mem, FaultConfig{Seed: 1, ReadDelayProb: 1, ReadDelay: time.Hour})
	h, err := fau.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ReadAtContext(ctx, h, make([]byte, 4), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed read = %v, want DeadlineExceeded", err)
	}
}

// TestDecoratorsForwardCtx: the observing decorator must not hide the
// wrapped storage's context support — a stall behind it still aborts on
// deadline.
func TestDecoratorsForwardCtx(t *testing.T) {
	mem := NewMem()
	mem.WriteFile("leaf", []byte("data"))
	fau := NewFaulty(mem, FaultConfig{})
	store := Observe(fau, obs.New())

	if _, ok := store.(CtxOpener); !ok {
		t.Fatal("the observed store does not implement CtxOpener")
	}
	f, err := OpenContext(context.Background(), store, "leaf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(CtxReaderAt); !ok {
		t.Fatal("the observed file does not implement CtxReaderAt")
	}

	fau.StallReads("leaf")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ReadAtContext(ctx, f, make([]byte, 4), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled read through the decorator = %v, want DeadlineExceeded", err)
	}
	fau.ReleaseStalls()
}

// TestSleepContext covers the zero-duration and pre-canceled fast paths.
func TestSleepContext(t *testing.T) {
	if err := SleepContext(context.Background(), 0); err != nil {
		t.Fatalf("SleepContext(0) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("SleepContext(canceled) = %v, want Canceled", err)
	}
	if err := SleepContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SleepContext(canceled, 0) = %v, want Canceled", err)
	}
}

// readerAtFunc adapts a function to io.ReaderAt.
type readerAtFunc func(p []byte, off int64) (int, error)

func (f readerAtFunc) ReadAt(p []byte, off int64) (int, error) { return f(p, off) }

// TestReadFullAt: a read that fills its buffer succeeds even when it ends
// at EOF; a short one wraps io.ErrUnexpectedEOF (and io.EOF) whether or not
// the reader said why; any other error is the reader's own.
func TestReadFullAt(t *testing.T) {
	errDisk := errors.New("disk")
	for _, tc := range []struct {
		name string
		n    int
		err  error
		want []error // nil: success
	}{
		{"full", 4, nil, nil},
		{"full at EOF", 4, io.EOF, nil},
		{"short at EOF", 3, io.EOF, []error{io.ErrUnexpectedEOF, io.EOF}},
		{"short without error", 3, nil, []error{io.ErrUnexpectedEOF, io.EOF}},
		{"failed", 1, errDisk, []error{errDisk}},
	} {
		r := readerAtFunc(func([]byte, int64) (int, error) { return tc.n, tc.err })
		err := ReadFullAt(context.Background(), r, make([]byte, 4), 0)
		if tc.want == nil && err != nil {
			t.Errorf("%s: %v, want nil", tc.name, err)
		}
		for _, w := range tc.want {
			if !errors.Is(err, w) {
				t.Errorf("%s: %v, want it to wrap %v", tc.name, err, w)
			}
		}
	}
}
