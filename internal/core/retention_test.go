package core

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

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
