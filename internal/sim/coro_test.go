package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runRecovered runs e and returns what Run panicked with, or nil.
func runRecovered(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// assertNoLeak fails the test unless the goroutine count returns to
// base (or below: an earlier test's goroutine may exit meanwhile).
// Coroutines end synchronously inside Run, so the short grace period
// only absorbs unrelated goroutines winding down.
func assertNoLeak(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines left behind after Run", n-base)
	}
}

// sentinel is a typed panic value of the kind vm.Run and interp
// recover by type assertion.
type sentinel struct{ msg string }

//go:noinline
func derefNil(p *sentinel) string { return p.msg }

// siblings adds n runnable threads that interleave with the rest of
// the run, so each is suspended mid-function when the run ends early.
func siblings(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.Go(fmt.Sprintf("sib%d", i), func(c *Ctx) {
			for j := 0; j < 1000; j++ {
				c.Advance(10)
			}
		})
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := New(Config{Processors: 4})
		siblings(e, 8)
		e.Go("spawner", func(c *Ctx) {
			for i := 0; i < 50; i++ {
				c.Go("child", func(cc *Ctx) { cc.Advance(30) })
				c.Advance(20)
			}
		})
		e.Run()
		assertNoLeak(t, base)
	})
	t.Run("panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := New(Config{Processors: 4})
		siblings(e, 8)
		e.Go("faulty", func(c *Ctx) {
			c.Advance(500)
			panic(&sentinel{"boom"})
		})
		if r := runRecovered(e); r == nil {
			t.Fatal("Run returned normally; want the thread's panic")
		}
		assertNoLeak(t, base)
	})
	t.Run("deadlock", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := New(Config{Processors: 2})
		a, b := e.NewMutex("a"), e.NewMutex("b")
		e.Go("ab", func(c *Ctx) {
			a.Lock(c)
			c.Advance(100)
			b.Lock(c)
		})
		e.Go("ba", func(c *Ctx) {
			b.Lock(c)
			c.Advance(100)
			a.Lock(c)
		})
		r := runRecovered(e)
		if s, _ := r.(string); !strings.Contains(s, "deadlock") {
			t.Fatalf("Run panicked with %v; want a deadlock report", r)
		}
		assertNoLeak(t, base)
	})
}

// TestThreadPanicReachesCaller pins how a panic inside a simulated
// thread surfaces from Run: a Go runtime error carries the thread's
// own stack, naming the faulting frame, and a typed value arrives
// unwrapped so callers can recover it by type assertion.
func TestThreadPanicReachesCaller(t *testing.T) {
	e := New(Config{Processors: 2})
	siblings(e, 2)
	e.Go("nil", func(c *Ctx) {
		c.Advance(50)
		derefNil(nil)
	})
	r := runRecovered(e)
	s, ok := r.(string)
	if !ok {
		t.Fatalf("runtime error surfaced as %T %v, want a string with the stack", r, r)
	}
	for _, want := range []string{"nil pointer dereference", "[simulated-thread stack]", "sim.derefNil"} {
		if !strings.Contains(s, want) {
			t.Errorf("panic message lacks %q:\n%s", want, s)
		}
	}

	e = New(Config{Processors: 2})
	siblings(e, 2)
	want := &sentinel{"typed"}
	e.Go("typed", func(c *Ctx) {
		c.Advance(50)
		panic(want)
	})
	if got, ok := runRecovered(e).(*sentinel); !ok || got != want {
		t.Errorf("typed panic surfaced as %#v, want %#v", got, want)
	}
}
