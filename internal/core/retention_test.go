package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"roadknn/internal/graph"
	"roadknn/internal/idtable"
	"roadknn/internal/roadnet"
)

// TestReleasedMonitorsAreCollectable flips every query of an IMA engine to
// Grouped after some ticks of query movement, runs two more ticks and
// collects, then does the same flipping back to Direct. Every monitor a flip
// released (the direct monitors, then the node monitors) must then be
// garbage unless the set still holds it, listed (reused in the other role)
// or pooled, and the pool must hold no more monitors than the last tick
// registered. A reused buffer that keeps a released monitor reachable (a
// vacated influence-list slot, the step's work list, the move or
// changed-node buffers) pins it and everything it owns for the engine's
// lifetime.
func TestReleasedMonitorsAreCollectable(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := newLockstepWorldOf(t, 606, 200, 120, 150, 4, func(build func() *roadnet.Network) []Engine {
				return []Engine{NewIMAWith(build(), Options{Workers: workers})}
			})
			e := w.engines[0].(*Incremental)
			// tick is w.step with between run at the tick boundary, between
			// Advance and Commit; it returns the tick's registrations.
			tick := func(ts int, between func()) int {
				before := e.set.regs
				e.Advance(w.next(ts, 0.1, 0.9, 0.1))
				between()
				regs := e.set.regs - before
				e.Commit()
				w.verify(w.label(ts))
				return regs
			}
			// flipAndCheck flips every query to mode at tick ts, runs two more
			// ticks and checks what became of the monitors listed before.
			flipAndCheck := func(ts int, mode Mode) {
				released := make([]weak.Pointer[monitor], 0, len(e.set.list))
				for _, m := range e.set.list {
					released = append(released, weak.Make(m))
				}
				tick(ts, func() {
					for _, id := range sortedQryIDs(w.qPos) {
						e.SetMode(id, mode)
					}
				})
				w.step(ts+1, 0.1, 0.9, 0.1)
				regs := tick(ts+2, func() {})
				runtime.GC()

				held := make(map[*monitor]bool)
				for _, m := range e.set.list {
					held[m] = true
				}
				for _, m := range e.set.free {
					held[m] = true
				}
				alive, stray := 0, 0
				for _, wp := range released {
					if m := wp.Value(); m != nil {
						alive++
						if !held[m] {
							stray++
						}
					}
				}
				t.Logf("to %v: %d of %d released monitors alive, %d pooled, %d registered by the last tick",
					mode, alive, len(released), len(e.set.free), regs)
				if stray > 0 {
					t.Errorf("to %v: %d released monitors are neither listed nor pooled but still reachable", mode, stray)
				}
				if len(e.set.free) > regs {
					t.Errorf("to %v: pool holds %d monitors after a tick that registered %d", mode, len(e.set.free), regs)
				}
			}

			for ts := 1; ts <= 10; ts++ {
				w.step(ts, 0.1, 0.9, 0.1)
			}
			flipAndCheck(11, Grouped)
			flipAndCheck(14, Direct)
		})
	}
}

// TestStepBuffersBoundedByUse checks the capacity side of what the core
// keeps: after every tick, no direct monitor's candidate store has room in
// its keys or their edges past reserveCap of the largest k it has served
// (the bytes the stores retain are logged at the end), and no entry of the step's work list beyond the
// tick's count still holds the op lists of an earlier, larger tick, and the
// departures buffer holds nothing while no grouped layer reads it (one entry
// per reported move or delete once one does). Most queries flip to Grouped
// at one tick, so the work list shrinks under a sharded step's queued ops.
func TestStepBuffersBoundedByUse(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := newLockstepWorldOf(t, 707, 200, 600, 150, 20, func(build func() *roadnet.Network) []Engine {
				return []Engine{NewIMAWith(build(), Options{Workers: workers})}
			})
			e := w.engines[0].(*Incremental)
			served := make(map[*monitor]int) // the largest k each monitor has served
			check := func(ts int) {
				for _, m := range e.set.list {
					served[m] = max(served[m], m.k)
					if k := served[m]; !m.track && max(cap(m.cand.nb), cap(m.cand.edges)) > reserveCap(k) {
						t.Errorf("ts %d: query %d (k=%d) has candidate capacity %d/%d, past reserveCap %d",
							ts, m.id, k, cap(m.cand.nb), cap(m.cand.edges), reserveCap(k))
					}
				}
				works := e.set.works
				for i, wk := range works[len(works):cap(works)] {
					if wk.ops != nil || wk.ilOps != nil {
						t.Errorf("ts %d: stale work entry %d of %d keeps %d op and %d influence-op slots",
							ts, len(works)+i, len(works), cap(wk.ops), cap(wk.ilOps))
					}
				}
			}
			ids := sortedQryIDs(w.qPos)
			for ts := 1; ts <= 16; ts++ {
				u := w.next(ts, 0.1, 0.9, 0.1)
				e.Advance(u)
				departures := 0
				for _, ou := range u.Objects {
					if !ou.Insert {
						departures++
					}
				}
				switch got := e.Departures(); {
				case ts <= 8 && cap(got) != 0:
					t.Errorf("ts %d: IMA without a grouped layer keeps a departures buffer of capacity %d", ts, cap(got))
				case ts > 8 && len(got) != departures:
					t.Errorf("ts %d: grouped layer reads %d departures, the batch reported %d", ts, len(got), departures)
				}
				if ts == 8 {
					for _, id := range ids[:len(ids)*4/5] {
						e.SetMode(id, Grouped)
					}
				}
				e.Commit()
				w.verify(w.label(ts))
				check(ts)
			}
			var bytes, direct int
			for _, m := range e.set.list {
				if !m.track {
					bytes += storeBytes(&m.cand)
					direct++
				}
			}
			t.Logf("store bytes per direct monitor: %d (%d monitors)", bytes/max(direct, 1), direct)
		})
	}
}

// storeBytes is what a candidate store retains at capacity: its keys, their
// edges and its membership table's slots, each charged at its type's size.
func storeBytes(c *candStore) int {
	return cap(c.nb)*int(unsafe.Sizeof(Neighbor{})) + cap(c.edges)*int(unsafe.Sizeof(graph.EdgeID(0))) + slotBytes(&c.dist)
}

// slotBytes is what an idtable.Map's arrays hold: an int32 key and a V per
// slot.
func slotBytes[V any](m *idtable.Map[V]) int {
	var v V
	return m.Slots() * int(unsafe.Sizeof(int32(0))+unsafe.Sizeof(v))
}
