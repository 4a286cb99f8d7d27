package sim

import (
	"fmt"
	"strings"
)

// EventKind classifies trace events.
type EventKind int8

// Event kinds. The first seven are the original vocabulary; the rest
// grew it to full coverage of the simulated machine: allocator traffic,
// pool free-list behavior, shadow-pointer reuse, cache-coherence
// invalidations, channel and waitgroup operations, scheduler
// preemptions and mutex hand-offs. Keep the block dense and append
// only: eventNames and Recorder.DroppedByKind are indexed by it.
const (
	EvThreadStart EventKind = iota
	EvThreadDone
	EvSpawn
	EvLockAcquire
	EvLockContended
	EvLockRelease
	EvMigrate
	EvLockHandoff   // releaser handed the mutex to a waiter (Arg1 = waiter slot)
	EvPreempt       // lease expired and the scheduler ran someone else
	EvAlloc         // heap allocation (Detail = class, Arg1 = size, Arg2 = address)
	EvFree          // heap free (Detail = class, Arg1 = address)
	EvPoolHit       // structure-pool allocation served from a free list
	EvPoolMiss      // structure-pool allocation that fell back to the heap
	EvShadowReuse   // realloc served by reusing the shadow block (Arg1 = want, Arg2 = shadow size)
	EvShadowMiss    // realloc that had to go to the heap (Arg1 = want, Arg2 = shadow size)
	EvCacheInval    // miss on a line this CPU had cached (invalidated by another CPU's write; Arg1 = line)
	EvCacheRFO      // store took ownership of a line last written elsewhere (Arg1 = line)
	EvChanSend      // channel send completed (Detail = channel)
	EvChanRecv      // channel receive completed (Detail = channel)
	EvChanBlocked   // channel operation parked (Detail = channel, Arg1: 0 = send, 1 = recv)
	EvWaitGroupWait // WaitGroup.Wait parked the caller
	EvWaitGroupDone // WaitGroup.Done (Arg1 = remaining count)
	EvAtomicCAS     // compare-and-swap on a simulated cell (Arg1 = addr, Arg2 = 1 on success)
	EvAtomicFAA     // fetch-and-add on a simulated cell (Arg1 = addr, Arg2 = delta)
	EvAtomicLoad    // atomic load of a simulated cell (Arg1 = addr)
	EvAtomicStore   // atomic store to a simulated cell (Arg1 = addr)

	// NumEventKinds is the size of the kind space (for per-kind tables).
	NumEventKinds = int(EvAtomicStore) + 1
)

// eventNames is dense, indexed by EventKind — the trace path does no
// map lookups.
var eventNames = [NumEventKinds]string{
	EvThreadStart:   "start",
	EvThreadDone:    "done",
	EvSpawn:         "spawn",
	EvLockAcquire:   "lock",
	EvLockContended: "lock-wait",
	EvLockRelease:   "unlock",
	EvMigrate:       "migrate",
	EvLockHandoff:   "handoff",
	EvPreempt:       "preempt",
	EvAlloc:         "alloc",
	EvFree:          "free",
	EvPoolHit:       "pool-hit",
	EvPoolMiss:      "pool-miss",
	EvShadowReuse:   "shadow-reuse",
	EvShadowMiss:    "shadow-miss",
	EvCacheInval:    "cache-inval",
	EvCacheRFO:      "cache-rfo",
	EvChanSend:      "send",
	EvChanRecv:      "recv",
	EvChanBlocked:   "chan-wait",
	EvWaitGroupWait: "wg-wait",
	EvWaitGroupDone: "wg-done",
	EvAtomicCAS:     "cas",
	EvAtomicFAA:     "faa",
	EvAtomicLoad:    "atomic-load",
	EvAtomicStore:   "atomic-store",
}

// String names the kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < NumEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Mask is a bit set of event kinds for Config.TraceMask.
type Mask uint64

// AllEvents enables every event kind.
const AllEvents Mask = 1<<NumEventKinds - 1

// MaskOf builds a mask enabling exactly the given kinds.
func MaskOf(kinds ...EventKind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// Has reports whether the mask enables kind.
func (m Mask) Has(k EventKind) bool { return m&(1<<uint(k)) != 0 }

// Event is one simulation occurrence. Arg1/Arg2 carry kind-specific
// numeric payload (sizes, addresses, counts) so emission never formats
// strings; Detail is a name that already existed (thread, mutex,
// channel, class) — never built per event.
type Event struct {
	Time   int64
	Thread int
	CPU    int
	Kind   EventKind
	Detail string
	Arg1   int64
	Arg2   int64
}

// Tracer receives events as they happen. Implementations must be cheap;
// the engine calls them synchronously. A nil tracer costs one branch.
type Tracer interface {
	Event(Event)
}

// Recorder is a bounded in-memory Tracer with two truncation modes:
// keep-earliest (the default — recording stops at the bound) and
// keep-latest (Ring — a ring buffer overwrites the oldest event).
// Either way Dropped counts the events lost, and DroppedByKind splits
// the count per event kind. The event storage is allocated once, so a
// full recorder appends nothing on the steady state.
type Recorder struct {
	// Max bounds the number of retained events; zero means 100000.
	Max int
	// Ring selects keep-latest truncation: the buffer wraps and the
	// oldest events are dropped instead of the newest.
	Ring bool
	// Events is the raw storage. With Ring set and the buffer full it
	// is rotated; use Snapshot for the events in time order.
	Events  []Event
	Dropped int64
	// DroppedByKind counts dropped events per kind.
	DroppedByKind [NumEventKinds]int64

	start int // ring read position once wrapped
}

func (r *Recorder) limit() int {
	if r.Max <= 0 {
		return 100_000
	}
	return r.Max
}

// Event implements Tracer.
func (r *Recorder) Event(e Event) {
	limit := r.limit()
	if len(r.Events) < limit {
		if cap(r.Events) == 0 {
			// One allocation for the whole run; grow to the bound only
			// if it is small enough not to dominate short traces.
			capHint := limit
			if capHint > 4096 {
				capHint = 4096
			}
			r.Events = make([]Event, 0, capHint)
		}
		r.Events = append(r.Events, e)
		return
	}
	if !r.Ring {
		// Keep-earliest: the incoming event is the one dropped.
		r.Dropped++
		r.DroppedByKind[e.Kind]++
		return
	}
	// Keep-latest: overwrite the oldest event in place.
	old := r.Events[r.start]
	r.Dropped++
	r.DroppedByKind[old.Kind]++
	r.Events[r.start] = e
	r.start++
	if r.start == limit {
		r.start = 0
	}
}

// Snapshot returns the retained events in time order (unrotating the
// ring). The slice aliases the recorder's storage only when no rotation
// happened.
func (r *Recorder) Snapshot() []Event {
	if r.start == 0 {
		return r.Events
	}
	out := make([]Event, 0, len(r.Events))
	out = append(out, r.Events[r.start:]...)
	out = append(out, r.Events[:r.start]...)
	return out
}

// Timeline renders the recorded events as one line each.
func (r *Recorder) Timeline() string {
	var b strings.Builder
	for _, e := range r.Snapshot() {
		fmt.Fprintf(&b, "%12d  t%-3d cpu%-2d %-12s %s", e.Time, e.Thread, e.CPU, e.Kind, e.Detail)
		if e.Arg1 != 0 || e.Arg2 != 0 {
			fmt.Fprintf(&b, " [%d %d]", e.Arg1, e.Arg2)
		}
		b.WriteByte('\n')
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "(%d further events dropped)\n", r.Dropped)
	}
	return b.String()
}

// trace emits an event if tracing is enabled. The nil check is the
// entire cost of an untraced run: one branch per event site.
func (e *Engine) trace(t *Thread, kind EventKind, detail string) {
	if e.tracer == nil {
		return
	}
	e.emit(t, kind, detail, 0, 0)
}

// traceArgs is trace with the numeric payload fields.
func (e *Engine) traceArgs(t *Thread, kind EventKind, detail string, a1, a2 int64) {
	if e.tracer == nil {
		return
	}
	e.emit(t, kind, detail, a1, a2)
}

// emit applies the per-kind filter and delivers the event. Callers have
// already checked the tracer is non-nil.
func (e *Engine) emit(t *Thread, kind EventKind, detail string, a1, a2 int64) {
	if !e.traceMask.Has(kind) {
		return
	}
	e.tracer.Event(Event{
		Time:   t.clock,
		Thread: t.slot,
		CPU:    t.lastCPU,
		Kind:   kind,
		Detail: detail,
		Arg1:   a1,
		Arg2:   a2,
	})
}

// Trace emits a custom event from workload or runtime code (allocator
// layers, pools, the VM) onto the engine's trace stream. With no
// tracer configured it costs one branch. detail must be a name that
// already exists (a class or channel name) — building strings at the
// call site would defeat the zero-alloc path.
func (c *Ctx) Trace(kind EventKind, detail string, a1, a2 int64) {
	t := c.t
	if t.e.tracer == nil {
		return
	}
	t.e.emit(t, kind, detail, a1, a2)
}

// Traced reports whether the engine has a tracer attached, for callers
// that want to skip preparing event payloads entirely.
func (c *Ctx) Traced() bool { return c.t.e.tracer != nil }
