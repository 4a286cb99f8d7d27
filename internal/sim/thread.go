package sim

import (
	"fmt"
	"math"
)

// threadState tracks where a thread is in its lifecycle.
type threadState int8

const (
	stateNew threadState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

// Thread is one simulated thread of execution. All fields are maintained
// by the engine; workload code interacts with a thread only through the
// *Ctx passed to its function.
type Thread struct {
	e     *Engine
	slot  int
	name  string
	fn    func(*Ctx)
	state threadState

	// clock is the thread's virtual time: the moment its next action
	// begins.
	clock int64
	// lease is the time up to which the thread may run without yielding
	// back to the scheduler (see package comment).
	lease int64
	// lastCPU is the processor the thread most recently ran on, used to
	// charge migration costs.
	lastCPU int
	// home is slot mod P, precomputed: the processor the thread owns
	// whenever the machine is not oversubscribed. Caching it keeps an
	// integer division out of cpu(), which runs on every cache access
	// and work charge.
	home int
	// heapIdx is the thread's position in the engine's ready heap, or
	// -1 while it is not queued.
	heapIdx int
	// pend counts pure work units the thread owes (see Ctx.Units): its
	// clock lags by exactly these Work(1) charges until settle applies
	// them. A queued thread with pend > 0 is suspended inside settle.
	pend int64

	// co is the pooled coroutine executing this thread, bound at its
	// first dispatch and returned to the engine's pool at retirement.
	co *coro

	// Per-thread statistics.
	LockAcquires  int64 // total successful mutex acquisitions
	LockContended int64 // acquisitions that had to wait
	LockWaitTime  int64 // virtual cycles spent waiting for mutexes
	CacheHits     int64
	CacheMisses   int64
	// CacheInvalidations counts misses on lines this thread's processor
	// had cached but another processor's write invalidated.
	CacheInvalidations int64
	Migrations         int64
	// Atomic-operation counters: CAS attempts (AtomicCASFailed is the
	// subset whose compare lost), fetch-and-adds, and plain atomic
	// loads/stores.
	AtomicCAS       int64
	AtomicCASFailed int64
	AtomicFAA       int64
	AtomicLoads     int64
	AtomicStores    int64
}

// Name reports the thread's name.
func (t *Thread) Name() string { return t.name }

// Slot reports the thread's creation index, which also determines its
// home processor (slot mod P).
func (t *Thread) Slot() int { return t.slot }

// Clock reports the thread's current virtual time. After Engine.Run it
// is the thread's completion time.
func (t *Thread) Clock() int64 { return t.clock }

// advance moves the thread's clock forward by cycles, dilated by the
// processor-sharing factor when more threads are runnable than there are
// processors, and charges migration when the processor assignment
// changed since the last advance.
func (t *Thread) advance(cycles int64) {
	e := t.e
	if r := int64(e.running); r > int64(e.cfg.Processors) {
		cycles = cycles * r / int64(e.cfg.Processors)
	}
	t.clock += cycles
	cpu := t.cpu()
	if cpu != t.lastCPU {
		t.lastCPU = cpu
		t.Migrations++
		t.clock += e.cost.Migration
		e.trace(t, EvMigrate, "")
	}
	if t.clock > e.maxClock {
		e.maxClock = t.clock
	}
}

// cpu computes the processor the thread currently runs on. With at most
// P live threads every thread stays on its home processor; with more,
// threads rotate across processors every MigrationPeriod of virtual
// time, modelling the OS spreading an oversubscribed run queue.
func (t *Thread) cpu() int {
	e := t.e
	if e.live <= e.cfg.Processors {
		return t.home
	}
	epoch := t.clock / e.cfg.MigrationPeriod
	return int((int64(t.slot) + epoch) % int64(e.cfg.Processors))
}

// yield returns control to the scheduler loop in Run until the loop
// resumes this thread. If Run is tearing the simulation down instead,
// the thread is unwound.
func (t *Thread) yield() {
	if !t.co.yield(struct{}{}) {
		panic(coroStop{})
	}
}

// maybeYield yields only when the thread's lease has expired — and even
// then only when the scheduler would hand the processor to a different
// thread. While a simulated thread runs, Run's loop is suspended, so
// the thread has exclusive access to the ready heap: if it is still
// ahead of every queued thread it renews its own lease and keeps
// running, saving a coroutine switch out and back. The decision is
// exactly the one Run would make after the yield, so virtual-time
// results are unchanged.
func (t *Thread) maybeYield() {
	if t.clock < t.lease {
		return
	}
	t.yieldCheck()
}

// yieldCheck is the slow path of maybeYield, split out so the lease
// check above inlines into every Work/Read/Write charge. A queued
// thread that is due but only owes pure units has no host code to run
// yet, so its units are applied in place (runRoot) instead of
// switching to its coroutine; the thread is preempted only when the
// next thread due must run code.
func (t *Thread) yieldCheck() {
	e := t.e
	if !e.cfg.linearScan {
		for {
			n := e.ready.peek()
			if n == nil || schedBefore(t, n) {
				if !e.cfg.Exact {
					if n == nil {
						t.lease = math.MaxInt64
					} else {
						t.lease = n.clock
					}
				}
				return
			}
			if n.pend == 0 || !e.deferUnits {
				break
			}
			e.runRoot(t)
		}
	}
	e.trace(t, EvPreempt, "")
	e.enqueue(t)
	t.yield()
}

// sync applies the thread's pending units before an engine action;
// every Ctx method that reads or charges simulated state starts here.
func (t *Thread) sync() {
	if t.pend != 0 {
		t.settle()
	}
}

// settle applies the thread's pending units exactly as that many
// Work(1) calls would: each unit advances the clock, then the thread
// yields if another is due. Deferred, the units are applied in runs
// (charge), and due peers that only owe units are advanced in place
// (yieldCheck), so the thread's coroutine is suspended only when a peer
// must run code. Otherwise every unit takes the per-unit path.
func (t *Thread) settle() {
	e := t.e
	if !e.deferUnits {
		for t.pend > 0 {
			t.pend--
			t.advance(e.cost.Op)
			t.maybeYield()
		}
		return
	}
	if e.ready.len() == 0 && e.live <= e.cfg.Processors && t.lastCPU == t.home {
		// Alone on an undersubscribed machine: no rival, no dilation and
		// no migration, so the units are one charge.
		t.clock += t.pend * e.cost.Op
		t.pend = 0
		if t.clock > e.maxClock {
			e.maxClock = t.clock
		}
		return
	}
	for t.pend > 0 {
		e.charge(t, e.ready.peek())
		t.maybeYield()
	}
}

// charge applies at least one of x's pending units, and as many more as
// consecutive Work(1) calls would apply without a scheduling decision
// going against x: it stops after the first unit that leaves x behind
// rival b (nil: none), when the units run out, or where a unit's price
// could change (a migration, or an epoch boundary on an oversubscribed
// machine). A unit's price is Op dilated by the runnable count, which
// pure units never change, so a run of k units is one k×price charge.
func (e *Engine) charge(x, b *Thread) {
	p := int64(e.cfg.Processors)
	d := e.cost.Op
	if r := int64(e.running); r > p {
		d = d * r / p
	}
	k := x.pend
	if e.live > e.cfg.Processors && d > 0 {
		// Oversubscribed: the processor rotates every MigrationPeriod,
		// so the run must end inside the current period.
		end := (x.clock/e.cfg.MigrationPeriod + 1) * e.cfg.MigrationPeriod
		k = min(k, (end-1-x.clock)/d)
	}
	if k <= 0 || x.cpu() != x.lastCPU {
		x.pend--
		x.advance(e.cost.Op)
		return
	}
	if b != nil && x.clock+k*d > b.clock {
		// Only a run that ends past b can leave x behind b before its
		// last unit.
		k = min(k, unitsAhead(x, b, d))
	}
	x.pend -= k
	x.clock += k * d
	if x.clock > e.maxClock {
		e.maxClock = x.clock
	}
}

// unitsAhead is the number of d-cycle units after which x is first
// ordered behind b: x keeps running through unit i only while
// schedBefore(x, b) holds after it. The caller has checked that a long
// enough run ends past b, so with d == 0 x is past b already.
func unitsAhead(x, b *Thread, d int64) int64 {
	gap := b.clock - x.clock
	if d == 0 {
		return 1
	}
	if x.slot < b.slot {
		// Ahead while x.clock <= b.clock.
		if gap < 0 {
			return 1
		}
		return gap/d + 1
	}
	// Ahead while x.clock < b.clock.
	if gap <= 0 {
		return 1
	}
	return (gap + d - 1) / d
}

// Ctx is the execution context handed to a thread function. It is valid
// only inside that function and must not be shared with other threads.
type Ctx struct {
	t *Thread
}

// Engine returns the engine the thread runs on.
func (c *Ctx) Engine() *Engine { return c.t.e }

// Thread returns the underlying thread (for reading statistics).
func (c *Ctx) Thread() *Thread { return c.t }

// Now reports the thread's current virtual time, pending units applied.
func (c *Ctx) Now() int64 {
	c.t.sync()
	return c.t.clock
}

// CPU reports the processor the thread currently runs on.
func (c *Ctx) CPU() int {
	c.t.sync()
	return c.t.cpu()
}

// ThreadID reports the thread's slot index.
func (c *Ctx) ThreadID() int { return c.t.slot }

// Advance charges the thread cycles of pure computation.
func (c *Ctx) Advance(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative advance %d", cycles))
	}
	c.t.sync()
	c.t.advance(cycles)
	c.t.maybeYield()
}

// Work charges n generic operations (n times CostModel.Op) as one
// charge: under oversubscription it is dilated as a whole, so Work(2)
// may round differently than Work(1) twice.
func (c *Ctx) Work(n int64) {
	c.Advance(n * c.t.e.cost.Op)
}

// Units charges n pure work units, exactly as n calls of Work(1). The
// units stay pending on the thread, without running the scheduler,
// until its next engine action applies them first; between Units and
// that action the caller must touch no state another simulated thread
// can see, and Sync orders such host code after the units. n must not
// be negative.
func (c *Ctx) Units(n int64) { c.t.pend += n }

// Deferred reports whether settling pending units may skip coroutine
// switches. It is false under Exact and linearScan, whose point is the
// unoptimized schedule, and with a tracer recording EvPreempt, whose
// stream must show every preemption: there, pending units are applied
// one Work(1) at a time, each preemption a real one.
func (c *Ctx) Deferred() bool { return c.t.e.deferUnits }

// workUnits is Units where units are not deferred, kept out of line so
// Units inlines into every VM step.
func (c *Ctx) workUnits(n int64) {
	for range n {
		c.Work(1)
	}
}

// Sync applies the thread's pending units before host code reads or
// writes state other simulated threads can see, so that code runs at
// the virtual time per-unit charging would run it. With no other
// runnable thread nothing can observe the order — a blocked thread is
// woken only by an engine action, which applies the units itself — so
// the units stay pending.
func (c *Ctx) Sync() {
	if t := c.t; t.pend != 0 && t.e.running > 1 {
		t.settle()
	}
}

// Read charges a load of size bytes at addr through the cache model.
func (c *Ctx) Read(addr uint64, size int64) {
	c.t.sync()
	c.t.e.cache.access(c.t, c.t.cpu(), addr, size, false)
	c.t.maybeYield()
}

// Write charges a store of size bytes at addr through the cache model.
func (c *Ctx) Write(addr uint64, size int64) {
	c.t.sync()
	c.t.e.cache.access(c.t, c.t.cpu(), addr, size, true)
	c.t.maybeYield()
}

// Sbrk charges the cost of extending the address space.
func (c *Ctx) Sbrk() {
	c.t.sync()
	c.t.advance(c.t.e.cost.Sbrk)
	c.t.maybeYield()
}

// Go spawns a new thread from inside the simulation. The child starts
// at the parent's current time plus the spawn cost. No coroutine is
// created here: the child is bound to a pooled one at its first
// dispatch, so spawning is just a ready-queue push on the host.
func (c *Ctx) Go(name string, fn func(*Ctx)) *Thread {
	t := c.t
	t.sync()
	t.advance(t.e.cost.Spawn)
	nt := t.e.newThread(name, fn)
	t.e.live++
	t.e.wake(t, nt, 0)
	t.e.trace(t, EvSpawn, name)
	t.e.trace(nt, EvThreadStart, name)
	t.maybeYield()
	return nt
}
