// Package cluster is the replicated serve tier: it turns one durable
// primary (internal/serve with a WAL) plus N follower processes into a
// read-scalable cluster with the epoch as the consistency token.
//
// The replication scheme exploits the pipeline's determinism end to end.
// The primary ships its sequenced WAL stream — the same CRC-framed
// batch/tick records it persists — over HTTP (see serve/replication.go);
// each follower replays the records through the normal Batcher→Step
// path, verifies every tick's snapshot CRC against the primary's, and
// serves lock-free reads from its own epoch-versioned snapshots. A
// caught-up follower is not merely convergent: its snapshot at epoch e
// is byte-identical to the primary's.
//
// Follower lifecycle: fetch /v1/replication/info (the engine name must
// match; the follower's own CheckpointEvery plays no part), bootstrap from
// /v1/replication/checkpoint (the newest checkpoint image, byte-verified
// on install), then tail /v1/replication/log with long-polls. A 410 Gone means the log was pruned past the follower's
// cursor (it lagged across a checkpoint rotation): the follower
// re-bootstraps from the current checkpoint and resumes tailing — the
// same path a late joiner takes from scratch.
//
// Router (router.go): load-balances reads across followers, skipping
// dead or lagging ones; ?since=E is routed only to followers whose known
// epoch has reached E, so a client never observes a replica behind its
// own cursor.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"roadknn/internal/serve"
	"roadknn/internal/wal"
)

// ErrLogPruned reports that the primary pruned the log past the
// follower's cursor; the follower must re-bootstrap from the checkpoint.
var ErrLogPruned = fmt.Errorf("cluster: primary log pruned past cursor")

// FollowerConfig tunes a Follower.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. "http://127.0.0.1:7070").
	Primary string
	// Client is the HTTP client used for all requests (default: a client
	// with no overall timeout — log requests long-poll).
	Client *http.Client
	// PollWait is the long-poll window per log request (default 10s).
	PollWait time.Duration
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	return c
}

// FetchInfo performs the replication handshake: what engine the primary
// runs (the follower must run the same), its last logged sequence and
// checkpoint, and its newest epoch. A follower has no checkpoint cadence
// of its own to mirror.
func FetchInfo(cfg FollowerConfig) (serve.ReplicationInfo, error) {
	cfg = cfg.withDefaults()
	var info serve.ReplicationInfo
	if err := getJSON(cfg.Client, cfg.Primary+"/v1/replication/info", &info); err != nil {
		return info, err
	}
	return info, nil
}

// Follower drives one follower serve.Server against a primary: bootstrap
// from the newest checkpoint, then tail and apply the shipped log.
type Follower struct {
	srv *serve.Server
	cfg FollowerConfig

	mu     sync.Mutex
	cursor uint64 // highest primary sequence applied

	stopc    chan struct{}
	done     chan struct{}
	startOne sync.Once
	stopOne  sync.Once
	errMu    sync.Mutex
	err      error
}

// NewFollower wraps a follower-mode server (serve.Config{Follower: true}).
// Call Bootstrap, then
// either Start for a background tail loop or SyncOnce for synchronous
// stepping (tests, controlled drills).
func NewFollower(srv *serve.Server, cfg FollowerConfig) *Follower {
	return &Follower{
		srv:   srv,
		cfg:   cfg.withDefaults(),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Server returns the wrapped follower server.
func (f *Follower) Server() *serve.Server { return f.srv }

// Cursor returns the highest primary sequence applied so far.
func (f *Follower) Cursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// Bootstrap fetches the primary's newest checkpoint image and seeds the
// follower from it (or from nothing, when the primary has not
// checkpointed yet — the log is then tailed from sequence 0). The
// checkpoint is decoded with its CRC verified and installed through the
// same byte-verified path recovery uses.
func (f *Follower) Bootstrap() error {
	resp, err := f.cfg.Client.Get(f.cfg.Primary + "/v1/replication/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		if err := f.srv.BootstrapFollower(nil); err != nil {
			return err
		}
		f.mu.Lock()
		f.cursor = 0
		f.mu.Unlock()
		return nil
	case http.StatusOK:
		// The primary streams the image in chunks against a declared
		// Content-Length; a transfer cut mid-stream yields a short read or
		// a short body, both rejected here before anything is installed
		// (DecodeCheckpoint additionally re-verifies the image's CRC).
		img, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("cluster: torn checkpoint transfer: %w", err)
		}
		if resp.ContentLength >= 0 && int64(len(img)) != resp.ContentLength {
			return fmt.Errorf("cluster: torn checkpoint transfer: got %d of %d bytes",
				len(img), resp.ContentLength)
		}
		c, err := wal.DecodeCheckpoint(img)
		if err != nil {
			return fmt.Errorf("cluster: bad checkpoint image from primary: %w", err)
		}
		if err := f.srv.BootstrapFollower(c); err != nil {
			return err
		}
		f.mu.Lock()
		f.cursor = c.Stamp
		f.mu.Unlock()
		return nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("cluster: checkpoint fetch: %s: %s", resp.Status, body)
}

// SyncOnce performs one log fetch-and-apply round: long-poll the primary
// for records after the cursor (up to wait; <= 0 asks for an immediate
// answer) and apply each through the verified replay path. Returns how
// many batches were applied. ErrLogPruned means the cursor fell off the
// primary's log; the caller re-bootstraps (on a fresh server) or — when
// the follower has merely lagged, not diverged — keeps serving its last
// epoch and escalates.
func (f *Follower) SyncOnce(wait time.Duration) (int, error) {
	f.mu.Lock()
	cursor := f.cursor
	f.mu.Unlock()
	ms := wait.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	url := fmt.Sprintf("%s/v1/replication/log?since=%d&wait_ms=%d", f.cfg.Primary, cursor, ms)
	resp, err := f.cfg.Client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return 0, ErrLogPruned
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("cluster: log fetch: %s: %s", resp.Status, body)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	recs, err := serve.DecodeReplLog(body)
	if err != nil {
		return 0, err
	}
	applied := 0
	for _, b := range recs {
		if err := f.srv.ApplyReplicated(b); err != nil {
			return applied, err
		}
		f.mu.Lock()
		f.cursor = b.Seq
		f.mu.Unlock()
		applied++
	}
	return applied, nil
}

// Start launches the background tail loop: long-poll, apply, repeat.
// Transient transport errors are retried with a short backoff; apply
// errors (divergence — the server is poisoned) and ErrLogPruned stop the
// loop and are reported by Err.
func (f *Follower) Start() {
	f.startOne.Do(func() {
		go func() {
			defer close(f.done)
			backoff := 100 * time.Millisecond
			for {
				select {
				case <-f.stopc:
					return
				default:
				}
				n, err := f.SyncOnce(f.cfg.PollWait)
				switch {
				case err == ErrLogPruned:
					f.setErr(err)
					return
				case err != nil:
					if !f.srv.Ready() || f.srv.ReadOnly() {
						f.setErr(err)
						return
					}
					// Transport hiccup: the primary may be restarting.
					select {
					case <-time.After(backoff):
					case <-f.stopc:
						return
					}
					if backoff *= 2; backoff > 5*time.Second {
						backoff = 5 * time.Second
					}
				default:
					backoff = 100 * time.Millisecond
					_ = n
				}
			}
		}()
	})
}

// Stop ends the tail loop and waits for it to finish.
func (f *Follower) Stop() {
	f.stopOne.Do(func() { close(f.stopc) })
	f.Start() // ensure done closes even if Start was never called
	<-f.done
}

// Err returns the terminal error that stopped the tail loop, if any.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: GET %s: %s: %s", url, resp.Status, body)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// parseEpochHeader reads the X-Roadknn-Epoch response header (0, false
// when absent or malformed).
func parseEpochHeader(h http.Header) (uint64, bool) {
	v := h.Get("X-Roadknn-Epoch")
	if v == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(v, 10, 64)
	return e, err == nil
}
