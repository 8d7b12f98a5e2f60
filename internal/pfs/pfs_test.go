package pfs

import (
	"io"
	"os"
	"sync"
	"testing"
)

// backends returns both implementations for shared contract tests.
func backends(t *testing.T) map[string]Storage {
	t.Helper()
	osb, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Storage{"os": osb, "mem": NewMem()}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello storage")
			if err := s.WriteFile("a.bat", data); err != nil {
				t.Fatal(err)
			}
			f, err := s.Open("a.bat")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Size() != int64(len(data)) {
				t.Errorf("Size = %d", f.Size())
			}
			buf := make([]byte, 5)
			if _, err := f.ReadAt(buf, 6); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "stora" {
				t.Errorf("ReadAt = %q", buf)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Open("nope"); err == nil {
				t.Error("missing file should error")
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"c", "a", "b"} {
				if err := s.WriteFile(n, []byte(n)); err != nil {
					t.Fatal(err)
				}
			}
			names, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 3 || names[0] != "a" || names[2] != "c" {
				t.Errorf("List = %v", names)
			}
		})
	}
}

func TestStats(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s.WriteFile("x", make([]byte, 100))
			s.WriteFile("y", make([]byte, 50))
			st := s.Stats()
			if st.FilesWritten != 2 || st.BytesWritten != 150 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestInvalidNames(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", "a/b", "../evil", ".."} {
				if err := s.WriteFile(bad, nil); err == nil {
					t.Errorf("name %q should be rejected", bad)
				}
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s.WriteFile("f", []byte("old"))
			s.WriteFile("f", []byte("new!"))
			f, err := s.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Size() != 4 {
				t.Errorf("overwrite size = %d", f.Size())
			}
		})
	}
}

func TestWriteIsolation(t *testing.T) {
	// Mutating the caller's buffer after WriteFile must not affect the
	// stored data.
	m := NewMem()
	buf := []byte("abc")
	m.WriteFile("f", buf)
	buf[0] = 'z'
	f, _ := m.Open("f")
	got := make([]byte, 3)
	f.ReadAt(got, 0)
	if string(got) != "abc" {
		t.Errorf("stored data aliased caller buffer: %q", got)
	}
}

func TestMemConcurrent(t *testing.T) {
	m := NewMem()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i%26))
			m.WriteFile(name, []byte{byte(i)})
			if f, err := m.Open(name); err == nil {
				f.Close()
			}
			m.List()
			m.Stats()
		}(i)
	}
	wg.Wait()
}

func TestOSNoTmpLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteFile("data", make([]byte, 10))
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != "data" {
			t.Errorf("leftover file %q", e.Name())
		}
	}
}

// writeRaw drops a file into a storage directory behind the OS backend's
// back, for tests that simulate crashes.
func writeRaw(dir, name string, data []byte) error {
	return os.WriteFile(dir+"/"+name, data, 0o644)
}
