// Package sim implements a deterministic discrete-event simulator of a
// small shared-memory multiprocessor (SMP).
//
// The paper this repository reproduces (Häggander, Lidén & Lundberg,
// "A Method for Automatic Optimization of Dynamic Memory Management in
// C++", ICPP 2001) ran its experiments on 8-processor Sun Enterprise
// machines. The phenomena it measures — lock serialization, lock
// contention, arena/pool spreading, free-list path length and cache-line
// invalidation (false sharing) — are algorithmic, so they can be
// reproduced faithfully in virtual time. Package sim provides:
//
//   - an Engine with P virtual processors and any number of threads,
//   - virtual-time Mutexes with FIFO handoff and contention statistics,
//   - a cache model with per-processor line ownership and MESI-style
//     invalidation, which makes false sharing visible as a cost,
//   - a processor-sharing scheduler: when more threads are runnable than
//     there are processors, each thread's progress is dilated by R/P and
//     threads periodically migrate between processors (losing cache
//     affinity), matching the behaviour the paper attributes to Solaris,
//   - a CostModel assigning cycle prices to ALU work, cache events and
//     lock operations.
//
// Threads are ordinary Go functions that receive a *Ctx and call
// Ctx.Advance, Ctx.Read/Write, Ctx.Lock/Unlock and so on. Each runs on a
// coroutine (iter.Pull), and Engine.Run is the single scheduler loop:
// it always resumes the runnable thread with the smallest virtual
// clock, and the thread yields back to the loop when it blocks, is
// preempted or finishes. Exactly one thread executes at a time, which
// makes every simulation fully deterministic and independent of the
// host machine. A panic in a thread surfaces from Run, and Run stops
// every suspended coroutine on each exit path.
//
// As an optimization the engine grants the running thread a lease: the
// thread may execute engine calls without yielding while its clock stays
// below the second-smallest runnable clock. Operations that could make
// another thread runnable earlier (unlock handoff, spawn, waitgroup
// completion) shrink the lease accordingly, preserving the scheduling
// invariant. Within a lease window, memory accesses by the leaseholder
// are not interleaved with other threads' accesses; this slightly batches
// cache-model traffic but affects all allocation strategies equally.
//
// Pure computation can be charged with Ctx.Units, which leaves work
// units pending on the thread instead of running the scheduler after
// each one. The thread's next engine action settles them exactly as
// that many Work(1) calls would, advancing due peers that only owe
// units in place rather than switching to their coroutines.
package sim
