package sim

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
)

// coro is a pooled coroutine that executes simulated threads one after
// another. Run resumes it with next; the thread it carries returns
// control with yield when it blocks or is preempted, and the coroutine
// yields once more when the thread finishes. A coroutine outlives its
// thread: at retirement it parks on the engine's free list with its
// grown stack, so spawn churn (millions of short-lived threads) does
// not pay coroutine creation and stack growth per thread.
type coro struct {
	t     *Thread // thread being executed
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// coroStop is the panic value that unwinds a suspended thread whose
// coroutine Run is stopping.
type coroStop struct{}

// bindCoro attaches t to a pooled (or fresh) coroutine at its first
// dispatch. Run hands the coroutine back to the pool when t retires.
func (e *Engine) bindCoro(t *Thread) {
	var co *coro
	if n := len(e.idleCoros); n > 0 {
		co = e.idleCoros[n-1]
		e.idleCoros = e.idleCoros[:n-1]
		e.corosReused++
	} else {
		co = &coro{}
		co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
			co.yield = yield
			for co.t.exec() && yield(struct{}{}) {
			}
		})
		e.coros = append(e.coros, co)
	}
	co.t = t
	t.co = co
}

// stopCoros ends every coroutine the engine created. Pooled ones leave
// their loop; threads still suspended (after a deadlock or a sibling's
// panic) are unwound by coroStop. A coroutine whose thread panicked has
// already ended, so stopping it is a no-op.
func (e *Engine) stopCoros() {
	for _, co := range e.coros {
		co.stop()
	}
	e.idleCoros = nil
}

// exec runs the thread function to completion and marks the thread done.
// It reports false when stopCoros unwound the thread instead, which
// ends the coroutine. Any other panic escapes through the coroutine to
// Run. A Go runtime error (nil dereference, index range) first gets the
// simulated thread's stack attached, captured here before the stack
// unwinds; typed panic values pass through untouched so callers can
// recover their own sentinels. Pending work units are applied before
// the thread is done; a thread that panicked applies them without
// scheduling — exact when no other thread is runnable, which callers
// that fault ensure with Ctx.Sync.
func (t *Thread) exec() (reusable bool) {
	defer func() {
		r := recover()
		if _, stopped := r.(coroStop); stopped {
			return
		}
		e := t.e
		for t.pend > 0 {
			e.charge(t, nil)
		}
		t.state = stateDone
		e.live--
		e.running--
		e.trace(t, EvThreadDone, t.name)
		if _, isRuntime := r.(runtime.Error); isRuntime {
			panic(fmt.Sprintf("%v\n\n[simulated-thread stack]\n%s", r, debug.Stack()))
		}
		if r != nil {
			panic(r)
		}
	}()
	t.fn(&Ctx{t: t})
	t.sync()
	return true
}
