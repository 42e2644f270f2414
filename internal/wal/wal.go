package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/frame"
)

// SyncPolicy controls when appends are fsync'd.
type SyncPolicy int

const (
	// SyncTick fsyncs at tick boundaries, pending flushes and checkpoints:
	// a crash loses at most the in-flight tick (default). Batch appends
	// within a tick share the one fsync issued at the tick boundary (group
	// commit), and the serving layer withholds publication of a tick's
	// results until its records are durable, so nothing a client can
	// observe is ever lost to a power cut.
	SyncTick SyncPolicy = iota
	// SyncNever leaves flushing to the OS: fastest, survives process
	// crashes (page cache persists) but not power cuts.
	SyncNever
	// SyncInterval fsyncs on a background timer (Options.SyncEvery) instead
	// of at tick boundaries: appends never pay an fsync on the step path,
	// and a power cut loses at most the ticks appended within one interval
	// window (a process crash still loses nothing — the page cache
	// persists). Clean shutdown, segment rotation and checkpoints remain
	// fully synchronous, so the bounded-loss window applies to hard crashes
	// only.
	SyncInterval
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "tick", "":
		return SyncTick, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want tick, never or interval=<duration>)", s)
}

// ParseSyncSpec parses the full -fsync flag syntax: the ParseSyncPolicy
// names plus "interval=<duration>" (e.g. "interval=5ms"), which selects
// SyncInterval with the given timer period.
func ParseSyncSpec(s string) (SyncPolicy, time.Duration, error) {
	if rest, ok := strings.CutPrefix(s, "interval="); ok {
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: bad fsync interval %q (want a positive duration, e.g. interval=5ms)", rest)
		}
		return SyncInterval, d, nil
	}
	p, err := ParseSyncPolicy(s)
	return p, 0, err
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	default:
		return "tick"
	}
}

// Options tunes a Log. The zero value is usable.
type Options struct {
	// Sync is the fsync policy (default SyncTick).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (default 5ms); it bounds the post-crash data-loss window.
	SyncEvery time.Duration
	// Retries is how many times a failed append is retried with capped
	// exponential backoff before the log declares itself failed
	// (default 4).
	Retries int
	// RetryBase is the first backoff delay (default 5ms); it doubles per
	// attempt up to RetryMax (default 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// KeepCheckpoints is how many checkpoints (and the segments they need)
	// survive pruning (default 2). Segments are never pruned before this
	// many checkpoints exist, so the log always stays replayable from the
	// oldest kept checkpoint — a retention window of one full checkpoint
	// interval that log-shipping followers tail within.
	KeepCheckpoints int
	// Sleep is a test seam for the backoff delay (default time.Sleep).
	Sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 5 * time.Millisecond
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Log is an append-only write-ahead log over an FS. Methods are safe for
// concurrent use, though the serving layer serializes appends under its
// own step lock anyway. After any unrecoverable write error the log is
// failed: Err returns the cause and every append refuses with it.
type Log struct {
	fs   FS
	opts Options

	mu      sync.Mutex
	cur     File
	curName string
	curSize int64
	err     error
	dirty   bool          // unsynced appends pending (SyncInterval bookkeeping)
	appendc chan struct{} // closed+replaced after every successful append

	flushStop chan struct{} // SyncInterval timer lifecycle
	flushDone chan struct{}
	flushOnce sync.Once

	// The cursors are written under mu and read without it, so that
	// LastSeq and the Checkpoint* accessors — what a stats probe asks for —
	// never wait behind an append parked in its fsync.
	lastSeq atomic.Uint64
	ckEpoch atomic.Uint64
	ckStamp atomic.Uint64
}

func segmentName(startSeq uint64) string { return fmt.Sprintf("wal-%016d.log", startSeq) }

func checkpointName(stamp uint64) string { return fmt.Sprintf("ckpt-%016d.ckpt", stamp) }

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return n, err == nil
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt"), 10, 64)
	return n, err == nil
}

// OpenDir opens (or initializes) a log in the given directory.
func OpenDir(dir string, opts Options) (*Log, *Recovery, error) {
	fs, err := DirFS(dir)
	if err != nil {
		return nil, nil, err
	}
	return Open(fs, opts)
}

// Open scans the store, recovering the checkpoint and replayable tail
// (see Recovery), truncates any torn or corrupt log suffix, and returns a
// log positioned to append the next batch. A sequence gap between the
// checkpoint and the log — or inside the log — is a hard error: it means
// the directory mixes files from different runs and replay would be wrong.
func Open(fs FS, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	rec, lastSegStart, err := scanStore(fs, opts)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{fs: fs, opts: opts, appendc: make(chan struct{})}
	l.lastSeq.Store(rec.lastSeq)
	if rec.Checkpoint != nil {
		l.ckEpoch.Store(rec.Checkpoint.Epoch)
		l.ckStamp.Store(rec.Checkpoint.Stamp)
	}

	if lastSegStart != 0 && rec.lastSegVersion == segVersion {
		name := segmentName(lastSegStart)
		f, err := fs.Append(name)
		if err != nil {
			return nil, nil, err
		}
		l.cur, l.curName, l.curSize = f, name, rec.lastSegSize
	} else {
		// Fresh store (or everything pruned), or a last segment of an older
		// version, which takes no records of this one: start a segment at
		// the next sequence number.
		if err := l.startSegment(rec.lastSeq + 1); err != nil {
			return nil, nil, err
		}
		if lastSegStart == rec.lastSeq+1 && rec.Pending != nil {
			// The older segment held no batch, so the new one took its name
			// and replaced it: keep the pending record its shutdown flushed.
			if err := l.append(encodePending(*rec.Pending), l.opts.Sync != SyncNever); err != nil {
				return nil, nil, err
			}
		}
	}
	if opts.Sync == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

// flushLoop is the SyncInterval background fsync: every SyncEvery it
// syncs the current segment if appends landed since the last flush. An
// fsync failure fails the log exactly as a synchronous one would.
func (l *Log) flushLoop() {
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	defer close(l.flushDone)
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.err == nil && l.cur != nil && l.dirty {
				l.dirty = false
				if serr := l.cur.Sync(); serr != nil {
					l.err = fmt.Errorf("wal: interval fsync failed: %w", serr)
				}
			}
			l.mu.Unlock()
		}
	}
}

// stopFlusher terminates the SyncInterval timer (idempotent; no-op for
// other policies). Callers must not hold l.mu.
func (l *Log) stopFlusher() {
	if l.flushStop == nil {
		return
	}
	l.flushOnce.Do(func() { close(l.flushStop) })
	<-l.flushDone
}

// startSegment creates a fresh segment (with header) and makes it current.
func (l *Log) startSegment(startSeq uint64) error {
	name := segmentName(startSeq)
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	hdr := frame.AppendHeader(nil, segMagic, segVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if l.opts.Sync != SyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := l.fs.SyncDir(); err != nil {
			f.Close()
			return err
		}
	}
	if l.cur != nil {
		if l.opts.Sync == SyncInterval && l.dirty {
			// Seal the rotated-away segment so the bounded-loss window never
			// spans a file the timer can no longer reach.
			l.cur.Sync()
			l.dirty = false
		}
		l.cur.Close()
	}
	l.cur, l.curName, l.curSize = f, name, int64(len(hdr))
	return nil
}

// append writes one framed record, retrying transient write errors with
// capped exponential backoff (truncating the partial tail first so a torn
// retry cannot interleave). A Sync failure is immediately fatal — after a
// failed fsync the kernel may have dropped the dirty pages, so retrying
// would acknowledge data that never reaches disk.
func (l *Log) append(rec []byte, syncNow bool) error {
	if l.err != nil {
		return l.err
	}
	pre := l.curSize
	delay := l.opts.RetryBase
	for attempt := 0; ; attempt++ {
		n, werr := l.cur.Write(rec)
		if werr == nil && n == len(rec) {
			break
		}
		if werr == nil {
			werr = fmt.Errorf("wal: short write (%d of %d)", n, len(rec))
		}
		// Cut any partial bytes so the retry appends a clean record.
		if terr := l.fs.Truncate(l.curName, pre); terr != nil {
			l.err = fmt.Errorf("wal: append failed (%v) and truncate failed (%v)", werr, terr)
			return l.err
		}
		if attempt >= l.opts.Retries {
			l.err = fmt.Errorf("wal: append failed after %d retries: %w", l.opts.Retries, werr)
			return l.err
		}
		l.opts.Sleep(delay)
		if delay *= 2; delay > l.opts.RetryMax {
			delay = l.opts.RetryMax
		}
	}
	l.curSize = pre + int64(len(rec))
	if syncNow {
		if serr := l.cur.Sync(); serr != nil {
			l.err = fmt.Errorf("wal: fsync failed: %w", serr)
			return l.err
		}
		l.dirty = false
	} else if l.opts.Sync == SyncInterval {
		l.dirty = true
	}
	return nil
}

// AppendBatch logs one drained per-tick batch under its sequence number
// (the timestamp the engine will apply it at). It must be called before
// the engine steps. Batches are never fsync'd individually: under
// SyncTick the tick-boundary fsync in AppendTick covers them
// (group commit) — a mid-tick power cut losing the batch is
// indistinguishable from the tick never having happened, because the
// serving layer does not publish results before the tick is durable.
func (l *Log) AppendBatch(seq uint64, u core.Updates) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.append(encodeBatch(seq, u), false); err != nil {
		return err
	}
	l.lastSeq.Store(seq)
	l.notifyAppend()
	return nil
}

// AppendTick logs the post-step epoch/timestamp and result-snapshot CRC,
// marking the preceding batch fully applied. snapCRC 0 disables replay
// verification for this tick. Under SyncTick its fsync is the
// group-commit point covering every batch appended since the last
// tick.
func (l *Log) AppendTick(epoch, stamp uint64, snapCRC uint32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.append(encodeTick(epoch, stamp, snapCRC), l.opts.Sync == SyncTick); err != nil {
		return err
	}
	l.notifyAppend()
	return nil
}

// AppendPending logs a not-yet-drained batch at shutdown so queued updates
// survive a clean stop. Recovery surfaces only a trailing pending record;
// any later batch supersedes it.
func (l *Log) AppendPending(u core.Updates) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Under SyncInterval the clean-shutdown Close fsync covers the record.
	return l.append(encodePending(u), l.opts.Sync == SyncTick)
}

// WriteCheckpoint atomically persists c as a checkpoint sidecar, rotates
// the log to a fresh segment, and prunes checkpoints and segments no
// longer needed for recovery. A checkpoint failure leaves the log itself
// healthy (the caller keeps appending and can retry later); only a
// rotation that loses the current segment is fatal.
func (l *Log) WriteCheckpoint(c *Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}

	name := checkpointName(c.Stamp)
	tmp := name + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	img := encodeCheckpoint(c)
	if _, err := f.Write(img); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, name); err != nil {
		return err
	}
	if err := l.fs.SyncDir(); err != nil {
		return err
	}
	l.ckEpoch.Store(c.Epoch)
	l.ckStamp.Store(c.Stamp)

	// Rotate. If the new segment cannot be created the old one stays
	// current — nothing is lost, rotation just waits for the next
	// checkpoint.
	if err := l.startSegment(c.Stamp + 1); err != nil {
		return fmt.Errorf("wal: rotate after checkpoint: %w", err)
	}

	return l.prune()
}

// prune removes checkpoints beyond KeepCheckpoints and segments wholly
// covered by the oldest kept checkpoint. Best-effort: an error is
// returned but the log stays healthy.
func (l *Log) prune() error {
	names, err := l.fs.List()
	if err != nil {
		return err
	}
	var ckpts []uint64
	var segs []uint64
	for _, n := range names {
		if s, ok := parseCheckpointName(n); ok {
			ckpts = append(ckpts, s)
		} else if s, ok := parseSegmentName(n); ok {
			segs = append(segs, s)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	var firstErr error
	keep := l.opts.KeepCheckpoints
	if len(ckpts) > keep {
		for _, s := range ckpts[keep:] {
			if err := l.fs.Remove(checkpointName(s)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		ckpts = ckpts[:keep]
	}
	// Segments are pruned only against a full complement of kept
	// checkpoints: until KeepCheckpoints exist, the implicit oldest
	// recovery base is genesis and the whole log stays replayable. This
	// is also the log-shipping retention window — a follower within one
	// checkpoint interval of the primary can always tail contiguously;
	// only one lagging further must re-bootstrap.
	if len(ckpts) < keep {
		return firstErr
	}
	oldest := ckpts[len(ckpts)-1]
	// A segment covers sequences [start, nextStart-1]; it is disposable
	// when even its successor's range begins at or below oldest+1.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] > oldest+1 {
			break
		}
		if err := l.fs.Remove(segmentName(segs[i])); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = l.fs.SyncDir()
	}
	return firstErr
}

// Close flushes and closes the current segment. Under SyncInterval the
// background timer is stopped and a final fsync issued, so a clean
// shutdown never loses appended data — the bounded-loss window exists
// only for hard crashes.
func (l *Log) Close() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	var firstErr error
	if l.err == nil && l.opts.Sync != SyncNever {
		firstErr = l.cur.Sync()
	}
	if err := l.cur.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	l.cur = nil
	return firstErr
}

// LastSeq returns the sequence number of the last batch appended (or
// recovered).
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// CheckpointEpoch returns the epoch of the latest checkpoint (0 if none).
func (l *Log) CheckpointEpoch() uint64 { return l.ckEpoch.Load() }

// CheckpointStamp returns the timestamp of the latest checkpoint (0 if
// none).
func (l *Log) CheckpointStamp() uint64 { return l.ckStamp.Load() }

// Err returns the sticky failure that moved the log to the failed state,
// or nil while healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Policy returns the fsync policy the log was opened with.
func (l *Log) Policy() SyncPolicy { return l.opts.Sync }

// notifyAppend wakes Appended waiters. Callers hold l.mu.
func (l *Log) notifyAppend() {
	close(l.appendc)
	l.appendc = make(chan struct{})
}

// Appended returns a channel closed at the next successful batch or tick
// append — the wake-up signal for log tailers (call again after each
// wake). The channel never carries values; only its closing matters.
func (l *Log) Appended() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendc
}

// CheckpointReader opens the newest checkpoint for streaming: the reader
// yields the raw encoded image — self-verifying (DecodeCheckpoint re-checks
// its CRC), so it is shipped to a bootstrapping follower as-is — without
// holding it in memory. The returned size is declared by the image's own
// length header, so a consumer can detect a torn transfer; DecodeCheckpoint
// re-checks the CRC regardless. Returns (nil, 0, 0, nil) when no checkpoint
// exists yet.
func (l *Log) CheckpointReader() (io.ReadCloser, int64, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stamp := l.ckStamp.Load()
	if stamp == 0 {
		return nil, 0, 0, nil
	}
	r, err := l.fs.Open(checkpointName(stamp))
	if err != nil {
		return nil, 0, 0, err
	}
	var hdr [headerLen + frameLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		r.Close()
		return nil, 0, 0, fmt.Errorf("wal: checkpoint header: %w", err)
	}
	if _, err := frame.ParseHeader(hdr[:], ckptMagic); err != nil {
		r.Close()
		return nil, 0, 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	blen := int64(binary.LittleEndian.Uint32(hdr[headerLen:]))
	if blen > maxRecordLen {
		r.Close()
		return nil, 0, 0, fmt.Errorf("wal: checkpoint body length %d exceeds the record cap", blen)
	}
	return &checkpointStream{hdr: hdr[:], r: r}, int64(len(hdr)) + blen, stamp, nil
}

// checkpointStream replays the peeked header bytes before the rest of the
// file.
type checkpointStream struct {
	hdr []byte
	r   io.ReadCloser
}

func (c *checkpointStream) Read(p []byte) (int, error) {
	if len(c.hdr) > 0 {
		n := copy(p, c.hdr)
		c.hdr = c.hdr[n:]
		return n, nil
	}
	return c.r.Read(p)
}

func (c *checkpointStream) Close() error { return c.r.Close() }
