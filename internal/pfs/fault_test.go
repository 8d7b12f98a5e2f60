package pfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestFaultyPermanent(t *testing.T) {
	f := &Faulty{
		Storage:    NewMem(),
		FailWrites: map[string]bool{"bad": true},
		FailOpens:  map[string]bool{"sealed": true},
	}
	for i := 0; i < 2; i++ {
		if err := f.WriteFile("bad", nil); !errors.Is(err, ErrInjected) {
			t.Errorf("write %d: want an injected error, got %v", i, err)
		}
	}
	if err := f.WriteFile("good", []byte("x")); err != nil {
		t.Errorf("clean write failed: %v", err)
	}
	f.WriteFile("sealed", []byte("y"))
	if _, err := f.Open("sealed"); err == nil {
		t.Error("injected open should fail")
	}
	if _, err := f.Open("good"); err != nil {
		t.Errorf("clean open failed: %v", err)
	}
	if f.Injected() < 2 {
		t.Errorf("Injected() = %d, want >= 2", f.Injected())
	}
}

func TestFaultyFailFirstN(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 1})
	if err := f.WriteFile("a", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f.FailNextOpens("a", 2)
	for i := 0; i < 2; i++ {
		if _, err := f.Open("a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("open %d: want an injected error, got %v", i, err)
		}
	}
	if _, err := f.Open("a"); err != nil {
		t.Fatalf("third open should pass: %v", err)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, FaultConfig{Seed: 7, TornWriteProb: 1, MaxConsecutive: 1})
	data := bytes.Repeat([]byte("payload!"), 64)
	err := f.WriteFile("t", data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write must report an injected error, got %v", err)
	}
	// The underlying store saw only a prefix.
	h, err := mem.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Size() >= int64(len(data)) {
		t.Errorf("torn write persisted %d bytes, want < %d", h.Size(), len(data))
	}
	// The streak cap lets the next attempt through.
	if err := f.WriteFile("t", data); err != nil {
		t.Fatalf("capped second attempt should pass: %v", err)
	}
}

func TestFaultyBitFlip(t *testing.T) {
	mem := NewMem()
	data := make([]byte, 1024)
	mem.WriteFile("x", data)
	f := NewFaulty(mem, FaultConfig{Seed: 3, BitFlipProb: 1})
	h, err := f.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got := make([]byte, len(data))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("bit flip changed %d bytes, want exactly 1", diff)
	}
}

func TestFaultyMaxConsecutive(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 9, WriteFailProb: 1, MaxConsecutive: 3})
	fails := 0
	for i := 0; i < 4; i++ {
		if err := f.WriteFile("n", []byte("v")); err != nil {
			fails++
		} else {
			break
		}
	}
	if fails != 3 {
		t.Errorf("saw %d consecutive faults before success, want 3", fails)
	}
}

// TestFaultyConcurrent exercises the injector from many goroutines; run
// under -race it proves the maps and generator are synchronized.
func TestFaultyConcurrent(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{
		Seed: 11, WriteFailProb: 0.3, OpenFailProb: 0.3,
		ReadFailProb: 0.2, BitFlipProb: 0.2, TornWriteProb: 0.1,
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g%4))
			f.FailNextOpens(name, 1)
			for i := 0; i < 50; i++ {
				f.WriteFile(name, []byte("data"))
				if h, err := f.Open(name); err == nil {
					buf := make([]byte, 4)
					h.ReadAt(buf, 0)
					h.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	if f.Injected() == 0 {
		t.Error("no faults injected")
	}
}

func TestRemove(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s.WriteFile("gone", []byte("x"))
			if err := s.Remove("gone"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open("gone"); err == nil {
				t.Error("removed file still opens")
			}
			// Idempotent.
			if err := s.Remove("gone"); err != nil {
				t.Errorf("second remove errored: %v", err)
			}
		})
	}
}

func TestOSConcurrentSameName(t *testing.T) {
	// Concurrent writers to one name must never collide on temp files or
	// leave partial state: the final content is one writer's payload.
	s, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + g)}, 4096)
			for i := 0; i < 20; i++ {
				if err := s.WriteFile("shared", payload); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	h, err := s.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Size() != 4096 {
		t.Fatalf("size %d", h.Size())
	}
	buf := make([]byte, 4096)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(buf); i++ {
		if buf[i] != buf[0] {
			t.Fatalf("torn content at byte %d", i)
		}
	}
	names, _ := s.List()
	if len(names) != 1 || names[0] != "shared" {
		t.Errorf("List = %v", names)
	}
}

func TestOSStaleTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	s, err := NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteFile("keep", []byte("x"))
	// Simulate a crash: a stray temp file appears in the directory.
	if err := writeRaw(dir, "keep.99.tmp", []byte("partial")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := s2.List()
	if len(names) != 1 || names[0] != "keep" {
		t.Errorf("List after reopen = %v", names)
	}
}
