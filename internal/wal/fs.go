// Package wal is the durability subsystem of the serving runtime: a
// write-ahead update log plus epoch checkpoints, giving a crashed monitor
// process deterministic recovery to a bit-identical engine.
//
// The design exploits the pipeline's determinism (two replicas fed the
// same update stream publish byte-identical snapshots at every epoch,
// TestBatcherDeterministicReplicas): durability only has to preserve the
// *input stream*, not the engine's state. Every drained per-tick Updates
// batch is appended as one length-prefixed, CRC32-checksummed record
// before the engine applies it, followed by a tick record carrying the
// post-step epoch/timestamp and result-snapshot CRC; periodically the
// applied state (object positions, registered queries, every live edge's
// weight; see EdgeState for older images) plus the serialized result
// snapshot is written to a checkpoint sidecar, the log rotates, and
// segments the checkpoint covers are pruned. Recovery loads the newest
// valid checkpoint, rebuilds the engine from it, replays the WAL tail
// through the normal Batcher→Engine path, and verifies every replayed
// tick's snapshot CRC — arriving at the same bits the crashed process
// would have served.
//
// Corrupt or torn log tails are truncated at the first bad record (never
// panicking the stepper); appends retry transient I/O errors with capped
// exponential backoff before declaring the log failed, which the serving
// layer turns into a read-only degrade instead of silently dropping
// acknowledged updates.
//
// All file I/O goes through the FS/File seam so the fault-injection
// harness (FaultFS) can fail, tear, or "crash" the log at chosen record
// boundaries, and tests can run against an in-memory store (MemFS) that
// models fsync durability.
package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is an append-only log or checkpoint file handle.
type File interface {
	io.Writer
	// Sync durably flushes everything written so far.
	Sync() error
	Close() error
}

// FS is the directory abstraction the log runs on: a flat namespace of
// segment and checkpoint files. DirFS adapts a real directory; MemFS is
// the in-memory test double; FaultFS injects failures into either.
type FS interface {
	// Create creates (or truncates) name for writing.
	Create(name string) (File, error)
	// Append opens an existing name for appending.
	Append(name string) (File, error)
	// Open opens name for sequential reading.
	Open(name string) (io.ReadCloser, error)
	// List returns all file names in the directory, sorted.
	List() ([]string, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically renames old to new (same directory).
	Rename(oldName, newName string) error
	// Truncate cuts name down to size bytes.
	Truncate(name string, size int64) error
	// SyncDir durably flushes the directory metadata (created, renamed and
	// removed entries).
	SyncDir() error
}

// dirFS is the production FS over one real directory.
type dirFS struct{ dir string }

// DirFS returns an FS rooted at dir, creating it if needed.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &dirFS{dir: dir}, nil
}

func (d *dirFS) path(name string) string { return filepath.Join(d.dir, name) }

func (d *dirFS) Create(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (d *dirFS) Append(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (d *dirFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(d.path(name))
}

func (d *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *dirFS) Remove(name string) error { return os.Remove(d.path(name)) }

func (d *dirFS) Rename(oldName, newName string) error {
	return os.Rename(d.path(oldName), d.path(newName))
}

func (d *dirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

func (d *dirFS) SyncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
