// Package pool provides the persistent worker pool behind the engines'
// parallel per-timestamp stages. The original pipeline (PR 1) spawned
// fresh goroutines on every Step; at high step rates the spawn/teardown
// and closure allocations dominate the parallel-path allocation profile
// (the workers>1 allocs/step delta in docs/bench-history/BENCH_*.json). A Pool
// instead starts its workers once, parks them on per-worker wake channels
// between steps, and feeds them work items off a shared atomic counter —
// a steady-state Run performs no heap allocation at all.
//
// Worker identity is stable: the goroutine created for worker w always
// invokes fn with that index, and the calling goroutine itself acts as
// worker 0. Engine scratch arenas are keyed by this index, so the
// "arena w belongs to worker w" ownership invariant of the expansion core
// carries over unchanged, and arenas stay warm across timestamps because
// the workers (and their indices) persist.
package pool

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size persistent worker pool. The zero value is not
// usable; create one with New.
//
// A Pool is single-producer: Run must not be invoked concurrently with
// itself or with Close. (The engines guarantee this — Step is the only
// producer.) Reads served off published snapshots never touch the pool.
type Pool struct {
	workers int

	// Per-run state, written by Run before the wake sends and read by the
	// workers after the wake receive (the channel send/receive pair is the
	// happens-before edge; wg.Done/Wait closes the reverse edge).
	fn   func(worker, item int)
	n    int
	next atomic.Int64

	// wake[w-1] signals worker w to drain the current run.
	wake    []chan struct{}
	wg      sync.WaitGroup
	stopc   chan struct{}
	started bool
	closeMu sync.Once
}

// New creates a pool of the given size. Values below 1 are treated as 1
// (serial: Run degenerates to a plain loop on the caller). No goroutines
// are started until the first Run that actually needs them, so engines
// configured with many workers but stepped serially cost nothing.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, stopc: make(chan struct{})}
}

// Workers returns the configured pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(worker, i) for every i in [0, n), pulling items from a
// shared atomic counter on min(Workers, n) workers. The first argument is
// the stable worker index in [0, Workers) — the key into per-worker
// scratch arenas, guaranteeing no two concurrent calls share one. The
// calling goroutine participates as worker 0; only workers 1..active-1
// are woken. Run returns after all calls complete.
//
// On a closed pool (or with a single worker) Run degrades to a serial
// loop on the caller, preserving correctness.
func (p *Pool) Run(n int, fn func(worker, item int)) {
	active := p.workers
	if active > n {
		active = n
	}
	if active <= 1 || p.closed() {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	if !p.started {
		p.start()
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.wg.Add(active - 1)
	for w := 1; w < active; w++ {
		p.wake[w-1] <- struct{}{}
	}
	p.drain(0)
	p.wg.Wait()
	// Drop the fn reference so the pool retains no pointer into the engine
	// between runs: idle worker goroutines reference only the Pool, which
	// lets the runtime collect an abandoned engine and run its cleanup
	// (closing this pool) even when Close was never called explicitly.
	p.fn = nil
}

// start spawns the persistent workers 1..workers-1.
func (p *Pool) start() {
	p.started = true
	p.wake = make([]chan struct{}, p.workers-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.loop(i + 1)
	}
}

// loop is the body of persistent worker w: park, drain one run, repeat.
func (p *Pool) loop(w int) {
	for {
		select {
		case <-p.stopc:
			return
		case <-p.wake[w-1]:
			p.drain(w)
			p.wg.Done()
		}
	}
}

// drain processes items as worker w until the counter runs out.
func (p *Pool) drain(w int) {
	fn, n := p.fn, p.n
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(w, i)
	}
}

// Close stops the persistent workers. It is idempotent and safe to call
// whether or not any worker was ever started, but must not race a Run in
// flight. After Close, Run falls back to serial execution on the caller.
func (p *Pool) Close() {
	p.closeMu.Do(func() { close(p.stopc) })
}

func (p *Pool) closed() bool {
	select {
	case <-p.stopc:
		return true
	default:
		return false
	}
}
