package wal

import (
	"errors"
	"io"
	"sync"
)

// ErrInjected is the error returned by every operation a FaultFS has been
// told to fail. The serving layer treats it like any other I/O error; tests
// assert on it to distinguish injected faults from real ones.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps an FS with programmable failures, the fault-injection seam
// of the durability tests. Two modes compose:
//
//   - Transient: FailNextWrites(n) makes the next n Write calls fail
//     cleanly (no bytes reach the inner FS), exercising the append
//     retry/backoff path.
//   - Crash: CrashAfterWrites(n, tear) lets n more Write calls through,
//     then persists only `tear` bytes of the next write (a torn record)
//     and fails it — and from that point every operation on the store
//     returns ErrInjected, as if the process lost its disk. The inner FS
//     then holds exactly the pre-crash image, so a test can re-open it
//     with Open and exercise recovery at a chosen record boundary.
//
// Writes are counted across all files (segments and checkpoints alike), so
// enumerating n over [0, total writes of a clean run] crashes a workload
// at every record boundary, including mid-checkpoint.
type FaultFS struct {
	inner FS

	mu         sync.Mutex
	writes     int // successful Write calls observed
	failNext   int // transient failures still to inject
	crashAfter int // successful writes before the crash (-1: disabled)
	tear       int // bytes of the crashing write that still hit the disk
	crashed    bool
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, crashAfter: -1}
}

// FailNextWrites arms n clean transient write failures.
func (f *FaultFS) FailNextWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext = n
}

// CrashAfterWrites arms a crash: n more writes succeed, then the store
// dies, persisting tear bytes of the fatal write.
func (f *FaultFS) CrashAfterWrites(n, tear int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAfter = n
	f.tear = tear
	f.crashed = false
}

// Writes returns the number of successful writes observed so far.
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Crashed reports whether the armed crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjected
	}
	return nil
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	if h.fs.crashed {
		h.fs.mu.Unlock()
		return 0, ErrInjected
	}
	if h.fs.failNext > 0 {
		h.fs.failNext--
		h.fs.mu.Unlock()
		return 0, ErrInjected
	}
	if h.fs.crashAfter >= 0 && h.fs.writes >= h.fs.crashAfter {
		h.fs.crashed = true
		tear := h.fs.tear
		h.fs.mu.Unlock()
		if tear > len(p) {
			tear = len(p)
		}
		if tear > 0 {
			h.inner.Write(p[:tear]) // torn: part of the record reaches disk
		}
		return 0, ErrInjected
	}
	h.fs.writes++
	h.fs.mu.Unlock()
	return h.inner.Write(p)
}

func (h *faultFile) Sync() error {
	if err := h.fs.check(); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *faultFile) Close() error { return h.inner.Close() }

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Append implements FS.
func (f *FaultFS) Append(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (io.ReadCloser, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.Open(name)
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.List()
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldName, newName string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Rename(oldName, newName)
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir() error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.SyncDir()
}
