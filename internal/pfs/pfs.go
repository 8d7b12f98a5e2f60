// Package pfs provides the storage backends the write/read pipelines run
// against: a real directory on the local filesystem (full-fidelity runs,
// the visualization benchmarks) and an in-memory store (tests and
// in-transit use). Both count files and bytes so benchmarks can report
// what a run produced.
package pfs

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"libbat/internal/obs"
)

// File is an open file handle supporting random-access reads.
type File interface {
	io.ReaderAt
	io.Closer
	Size() int64
}

// Storage is a flat namespace of immutable files.
type Storage interface {
	// WriteFile atomically creates (or replaces) a file.
	WriteFile(name string, data []byte) error
	// Open opens a file for random-access reading.
	Open(name string) (File, error)
	// Remove deletes a file. Removing a file that does not exist is not
	// an error, so cleanup paths can call it unconditionally.
	Remove(name string) error
	// List returns all file names, sorted.
	List() ([]string, error)
	// Stats reports cumulative write traffic.
	Stats() Stats
}

// Stats counts storage traffic.
type Stats struct {
	FilesWritten int64
	BytesWritten int64
}

// OS stores files under a root directory on the local filesystem.
type OS struct {
	root   string
	files  atomic.Int64
	bytes  atomic.Int64
	tmpSeq atomic.Int64
}

// NewOS creates (if needed) and wraps a directory. Temp files left behind
// by a crashed writer are removed; they were never visible through List or
// Open-by-dataset-name, so this only reclaims space.
func NewOS(root string) (*OS, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	if ents, err := os.ReadDir(root); err == nil {
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(root, e.Name()))
			}
		}
	}
	return &OS{root: root}, nil
}

// validName is the one naming rule of every store: a flat, non-empty name
// that cannot step out of the root. Mem enforces it too, so a suite on Mem
// catches a name that would fail on disk.
func validName(name string) error {
	if name == "" || strings.Contains(name, "/") || strings.Contains(name, "..") {
		return fmt.Errorf("pfs: invalid file name %q", name)
	}
	return nil
}

func (s *OS) path(name string) (string, error) {
	if err := validName(name); err != nil {
		return "", err
	}
	return filepath.Join(s.root, name), nil
}

// WriteFile implements Storage: write to a uniquely named temp file, then
// rename into place. A crash at any point leaves either the old file or
// the new one visible, never a torn mixture — concurrent writers cannot
// collide on the temp name because each write draws a fresh sequence
// number. Nothing is fsynced: the rename gives atomicity, not durability
// across power loss.
func (s *OS) WriteFile(name string, data []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", p, s.tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return err
	}
	s.files.Add(1)
	s.bytes.Add(int64(len(data)))
	return nil
}

// Remove implements Storage.
func (s *OS) Remove(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

type osFile struct {
	*os.File
	size int64
}

func (f *osFile) Size() int64 { return f.size }

// Open implements Storage.
func (s *OS) Open(name string) (File, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	fh, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	st, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, err
	}
	return &osFile{File: fh, size: st.Size()}, nil
}

// List implements Storage.
func (s *OS) List() ([]string, error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements Storage.
func (s *OS) Stats() Stats {
	return Stats{FilesWritten: s.files.Load(), BytesWritten: s.bytes.Load()}
}

// Mem is an in-memory Storage safe for concurrent use.
type Mem struct {
	mu    sync.RWMutex
	files map[string][]byte
	stats Stats
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte)}
}

// WriteFile implements Storage.
func (m *Mem) WriteFile(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	m.mu.Lock()
	m.files[name] = cp
	m.stats.FilesWritten++
	m.stats.BytesWritten += int64(len(data))
	m.mu.Unlock()
	return nil
}

// Remove implements Storage.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	delete(m.files, name)
	m.mu.Unlock()
	return nil
}

type memFile struct{ data []byte }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Size() int64  { return int64(len(f.data)) }

// Open implements Storage.
func (m *Mem) Open(name string) (File, error) {
	m.mu.RLock()
	data, ok := m.files[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pfs: %q: %w", name, os.ErrNotExist)
	}
	return &memFile{data: data}, nil
}

// List implements Storage.
func (m *Mem) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements Storage.
func (m *Mem) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// Observe wraps a Storage so every write, open, and read is counted on the
// collector: per-file call/byte counters plus a write-size histogram. With
// a nil collector the storage is returned unwrapped (zero overhead).
func Observe(s Storage, c *obs.Collector) Storage {
	if c == nil {
		return s
	}
	return &observed{Storage: s, col: c}
}

type observed struct {
	Storage
	col *obs.Collector
}

func (o *observed) WriteFile(name string, data []byte) error {
	err := o.Storage.WriteFile(name, data)
	if err == nil {
		f := obs.L("file", name)
		o.col.Add("pfs_write_calls_total", 1, f)
		o.col.Add("pfs_write_bytes_total", int64(len(data)), f)
		o.col.Histogram("pfs_write_size_bytes", obs.DefSizeBuckets()).Observe(float64(len(data)))
	}
	return err
}

func (o *observed) Open(name string) (File, error) {
	return o.OpenCtx(context.Background(), name)
}

// OpenCtx implements CtxOpener, so observing a ctx-aware storage does not
// hide its cancellation support from callers.
func (o *observed) OpenCtx(ctx context.Context, name string) (File, error) {
	f, err := OpenContext(ctx, o.Storage, name)
	if err != nil {
		return nil, err
	}
	lab := obs.L("file", name)
	o.col.Add("pfs_open_calls_total", 1, lab)
	return &observedFile{
		File:  f,
		calls: o.col.Counter("pfs_read_calls_total", lab),
		bytes: o.col.Counter("pfs_read_bytes_total", lab),
	}, nil
}

type observedFile struct {
	File
	calls, bytes *obs.Counter
}

func (f *observedFile) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx implements CtxReaderAt by forwarding to the wrapped file.
func (f *observedFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := ReadAtContext(ctx, f.File, p, off)
	f.calls.Add(1)
	f.bytes.Add(int64(n))
	return n, err
}
