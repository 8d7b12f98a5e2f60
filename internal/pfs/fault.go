// Fault injection for pipeline robustness tests: a seeded, concurrency-safe
// Storage decorator that produces the failure modes a parallel filesystem
// exhibits under load — transient and permanent operation failures, torn
// (partially persisted) writes, silent read corruption, seeded per-op
// latency, and indefinitely stalled operations (the hung-mount case) that
// unblock only on context cancellation or an explicit release.
package pfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is returned (wrapped) by Faulty for every injected fault.
var ErrInjected = errors.New("pfs: injected fault")

// FaultConfig configures probabilistic fault injection. Probabilities are
// in [0,1] and rolled independently per operation from the injector's
// seeded generator.
type FaultConfig struct {
	// Seed makes the fault schedule reproducible.
	Seed int64
	// WriteFailProb is the chance a WriteFile fails (transiently) without
	// touching the underlying storage.
	WriteFailProb float64
	// TornWriteProb is the chance a WriteFile persists only a prefix of
	// the data before failing transiently — the corruption a non-atomic
	// store would expose and checksums must catch.
	TornWriteProb float64
	// OpenFailProb is the chance an Open fails transiently.
	OpenFailProb float64
	// ReadFailProb is the chance a ReadAt on an opened file fails
	// transiently.
	ReadFailProb float64
	// BitFlipProb is the chance a ReadAt silently flips one random bit in
	// the returned data. Bit flips are not errors; only checksum
	// verification in the formats can detect them.
	BitFlipProb float64
	// MaxConsecutive caps the consecutive probabilistic faults injected
	// per (operation, file); after the cap the next attempt is let
	// through. 0 means uncapped. A caller that tries more times than this
	// cap is guaranteed to get past every probabilistic fault, which keeps
	// seeded chaos tests deterministic.
	MaxConsecutive int

	// Latency injection: with probability *DelayProb the operation sleeps
	// a seeded uniform duration in (0, *Delay] before proceeding. Delays
	// are not faults (the operation still succeeds) and do not count
	// toward MaxConsecutive; on the context-aware paths the sleep aborts
	// when the caller's context ends.
	ReadDelayProb  float64
	ReadDelay      time.Duration
	OpenDelayProb  float64
	OpenDelay      time.Duration
	WriteDelayProb float64
	WriteDelay     time.Duration
}

// Faulty wraps a Storage and injects faults: permanent per-name failures
// (the FailWrites/FailOpens maps), deterministic fail-first-N transient
// faults, and the probabilistic faults of FaultConfig. All methods are
// safe for concurrent use by aggregator goroutines.
type Faulty struct {
	Storage
	// FailWrites and FailOpens name files whose writes/opens fail on
	// every attempt. They may be set at construction; use
	// FailWritesPermanently to add a write name once the injector is
	// shared between goroutines.
	FailWrites map[string]bool
	FailOpens  map[string]bool

	mu         sync.Mutex
	cfg        FaultConfig
	rng        *rand.Rand
	nextOpens  map[string]int // remaining scheduled transient open faults
	streak     map[string]int // consecutive probabilistic faults per op:name
	injected   int64
	delays     int64
	stalls     int64
	stallReads map[string]bool
	stallOpens map[string]bool
	stallCh    chan struct{} // closed by ReleaseStalls; nil until first Stall*
}

// NewFaulty wraps store with a seeded fault injector.
func NewFaulty(store Storage, cfg FaultConfig) *Faulty {
	return &Faulty{Storage: store, cfg: cfg}
}

// locked returns the generator, initializing lazily so zero-value Faulty
// literals (permanent-fault maps only) keep working. Callers hold f.mu.
func (f *Faulty) gen() *rand.Rand {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.cfg.Seed))
	}
	return f.rng
}

// roll draws one probability check. Callers hold f.mu.
func (f *Faulty) roll(p float64) bool {
	return p > 0 && f.gen().Float64() < p
}

// allowFault applies the MaxConsecutive cap for the (operation, file) key
// and updates the streak. Callers hold f.mu.
func (f *Faulty) allowFault(key string, fault bool) bool {
	if f.streak == nil {
		f.streak = make(map[string]int)
	}
	if fault && f.cfg.MaxConsecutive > 0 && f.streak[key] >= f.cfg.MaxConsecutive {
		fault = false
	}
	if fault {
		f.streak[key]++
	} else {
		f.streak[key] = 0
	}
	return fault
}

// FailNextOpens schedules the next n opens of name to fail transiently.
func (f *Faulty) FailNextOpens(name string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextOpens == nil {
		f.nextOpens = make(map[string]int)
	}
	f.nextOpens[name] = n
}

// FailWritesPermanently marks name so every write of it fails.
func (f *Faulty) FailWritesPermanently(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.FailWrites == nil {
		f.FailWrites = make(map[string]bool)
	}
	f.FailWrites[name] = true
}

// Injected returns the number of faults injected so far (all kinds,
// including silent bit flips and stalls, excluding latency delays).
func (f *Faulty) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Delays returns the number of latency delays injected so far.
func (f *Faulty) Delays() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delays
}

// Stalled returns the number of operations that entered a stall so far
// (whether they were later released or canceled).
func (f *Faulty) Stalled() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalls
}

// StallReads marks name so every ReadAt of it blocks indefinitely — the
// hung-mount failure mode. A stalled read unblocks only when the caller's
// context ends (returning ctx.Err()) or ReleaseStalls is called (the read
// then proceeds normally). Context-free ReadAt calls on a stalled file
// block until release.
func (f *Faulty) StallReads(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stallReads == nil {
		f.stallReads = make(map[string]bool)
	}
	f.stallReads[name] = true
	f.armStall()
}

// StallOpens marks name so every Open of it blocks, with the same
// semantics as StallReads.
func (f *Faulty) StallOpens(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stallOpens == nil {
		f.stallOpens = make(map[string]bool)
	}
	f.stallOpens[name] = true
	f.armStall()
}

// armStall ensures the release channel exists. Callers hold f.mu.
func (f *Faulty) armStall() {
	if f.stallCh == nil {
		f.stallCh = make(chan struct{})
	}
}

// ReleaseStalls clears every stall mark and unblocks all currently
// stalled operations; they proceed against the underlying storage as if
// the mount recovered.
func (f *Faulty) ReleaseStalls() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stallReads = nil
	f.stallOpens = nil
	if f.stallCh != nil {
		close(f.stallCh)
		f.stallCh = nil
	}
}

// maybeStall blocks if name is stall-marked for the given op kind,
// returning ctx.Err() if the context ends first and nil once released.
func (f *Faulty) maybeStall(ctx context.Context, kind, name string) error {
	f.mu.Lock()
	var stalled bool
	switch kind {
	case "read":
		stalled = f.stallReads[name]
	case "open":
		stalled = f.stallOpens[name]
	}
	ch := f.stallCh
	if stalled {
		f.injected++
		f.stalls++
	}
	f.mu.Unlock()
	if !stalled {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maybeDelay rolls the latency injection for one operation and sleeps
// (interruptibly) if it hits.
func (f *Faulty) maybeDelay(ctx context.Context, prob float64, max time.Duration) error {
	f.mu.Lock()
	var d time.Duration
	if max > 0 && f.roll(prob) {
		d = 1 + time.Duration(f.gen().Float64()*float64(max-1))
		f.delays++
	}
	f.mu.Unlock()
	if d <= 0 {
		return nil
	}
	return SleepContext(ctx, d)
}

// WriteFile implements Storage. Write delays are bounded sleeps (the
// write pipeline carries no context), so WriteDelay keeps them finite.
func (f *Faulty) WriteFile(name string, data []byte) error {
	f.maybeDelay(context.Background(), f.cfg.WriteDelayProb, f.cfg.WriteDelay)
	f.mu.Lock()
	if f.FailWrites[name] {
		f.injected++
		f.mu.Unlock()
		return fmt.Errorf("%w: write %s", ErrInjected, name)
	}
	torn := f.allowFault("torn:"+name, f.roll(f.cfg.TornWriteProb))
	fail := torn
	if !torn {
		fail = f.allowFault("write:"+name, f.roll(f.cfg.WriteFailProb))
	}
	var prefix int
	if torn && len(data) > 0 {
		prefix = f.gen().Intn(len(data))
	}
	if fail {
		f.injected++
	}
	f.mu.Unlock()

	if torn {
		// Persist a prefix so the damaged state is visible to readers
		// that race a later attempt, then report the failure.
		f.Storage.WriteFile(name, data[:prefix])
		return fmt.Errorf("%w: torn write %s (%d of %d bytes)", ErrInjected, name, prefix, len(data))
	}
	if fail {
		return fmt.Errorf("%w: write %s", ErrInjected, name)
	}
	return f.Storage.WriteFile(name, data)
}

// Open implements Storage. An open of a stall-marked name blocks until
// ReleaseStalls; use OpenCtx for a cancelable open.
func (f *Faulty) Open(name string) (File, error) {
	return f.OpenCtx(context.Background(), name)
}

// OpenCtx implements CtxOpener: stalls and injected delays abort with
// ctx.Err() when ctx ends.
func (f *Faulty) OpenCtx(ctx context.Context, name string) (File, error) {
	if err := f.maybeStall(ctx, "open", name); err != nil {
		return nil, err
	}
	if err := f.maybeDelay(ctx, f.cfg.OpenDelayProb, f.cfg.OpenDelay); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.FailOpens[name] {
		f.injected++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: open %s", ErrInjected, name)
	}
	if n := f.nextOpens[name]; n > 0 {
		f.nextOpens[name] = n - 1
		f.injected++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: open %s", ErrInjected, name)
	}
	fail := f.allowFault("open:"+name, f.roll(f.cfg.OpenFailProb))
	if fail {
		f.injected++
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("%w: open %s", ErrInjected, name)
	}
	h, err := OpenContext(ctx, f.Storage, name)
	if err != nil {
		return nil, err
	}
	// Always wrap: read stalls and delays may be configured after the
	// file is opened (StallReads mid-test is the hung-mount scenario).
	return &faultyFile{File: h, f: f, name: name}, nil
}

// faultyFile injects read faults and silent bit flips.
type faultyFile struct {
	File
	f    *Faulty
	name string
}

func (ff *faultyFile) ReadAt(p []byte, off int64) (int, error) {
	return ff.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx implements CtxReaderAt: a stalled or delayed read aborts with
// ctx.Err() when ctx ends, which is what lets a deadline bound a query
// over a hung mount.
func (ff *faultyFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f := ff.f
	if err := f.maybeStall(ctx, "read", ff.name); err != nil {
		return 0, err
	}
	if err := f.maybeDelay(ctx, f.cfg.ReadDelayProb, f.cfg.ReadDelay); err != nil {
		return 0, err
	}
	f.mu.Lock()
	fail := f.allowFault("read:"+ff.name, f.roll(f.cfg.ReadFailProb))
	flip := !fail && f.roll(f.cfg.BitFlipProb)
	var flipAt int
	var flipBit uint
	if flip && len(p) > 0 {
		flipAt = f.gen().Intn(len(p))
		flipBit = uint(f.gen().Intn(8))
	}
	if fail || flip {
		f.injected++
	}
	f.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("%w: read %s at %d", ErrInjected, ff.name, off)
	}
	n, err := ReadAtContext(ctx, ff.File, p, off)
	if flip && n > flipAt {
		p[flipAt] ^= 1 << flipBit
	}
	return n, err
}
