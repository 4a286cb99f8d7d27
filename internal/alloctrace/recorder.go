package alloctrace

import (
	"fmt"
	"slices"

	"amplify/internal/alloc"
	"amplify/internal/mem"
)

// Recorder captures a run's allocator request stream as a Trace. It
// implements alloc.TraceObserver, so attaching it as a run's
// HeapObserver (workload.TreeConfig / ChurnConfig / ReplayConfig,
// vm.Config, mccrun -record-trace) records every Alloc/Free with its
// thread, sizes and lifetime back-reference. It also implements the
// VM's HeapProfiler hooks: when additionally wired as vm.Config.
// HeapProf, program-level births annotate the just-recorded allocator
// event with its MiniCC "fn@line" site.
//
// Recording is host-side bookkeeping on the simulation's deterministic
// event order: it charges nothing, never changes a makespan, and
// capturing the same run twice yields byte-identical traces at any
// bench -j parallelism.
type Recorder struct {
	// Name is stamped into the captured trace.
	Name string

	sites     map[string]int32
	threadIdx []int32           // thread slot -> trace thread index + 1; 0 = not seen yet
	liveSeq   map[mem.Ref]int64 // live block -> its alloc event index
	tr        Trace

	// DroppedFrees counts Free events whose block the recorder never
	// saw allocated (an allocation predating attachment); they are
	// omitted so the trace stays structurally valid.
	DroppedFrees int64
}

// NewRecorder returns an empty recorder.
func NewRecorder(name string) *Recorder {
	r := &Recorder{
		Name:    name,
		sites:   map[string]int32{"": 0},
		liveSeq: make(map[mem.Ref]int64),
	}
	r.tr.Name = name
	r.tr.Sites = []string{""}
	return r
}

// Observe implements alloc.Observer for the pool/shadow event kinds the
// trace does not record. Allocator Alloc/Free traffic arrives through
// the rich ObserveAlloc/ObserveFree path instead.
func (r *Recorder) Observe(now int64, op alloc.ObsOp, bytes int64) {}

// ObserveAlloc implements alloc.TraceObserver.
func (r *Recorder) ObserveAlloc(now int64, thread int, req, granted int64, ref mem.Ref) {
	r.liveSeq[ref] = int64(len(r.tr.Events))
	r.push(Event{
		Op:      OpAlloc,
		Thread:  r.thread(thread),
		Now:     now,
		Req:     req,
		Granted: granted,
	})
}

// ObserveFree implements alloc.TraceObserver.
func (r *Recorder) ObserveFree(now int64, thread int, granted int64, ref mem.Ref) {
	seq, ok := r.liveSeq[ref]
	if !ok {
		r.DroppedFrees++
		return
	}
	delete(r.liveSeq, ref) // the allocator may recycle the ref
	r.push(Event{
		Op:       OpFree,
		Thread:   r.thread(thread),
		Now:      now,
		AllocSeq: seq,
	})
}

// push appends one event, doubling the buffer when it is full: append
// alone grows large slices by ~1.25x and would copy every event of a
// long capture several times over.
func (r *Recorder) push(ev Event) {
	if n := len(r.tr.Events); n == cap(r.tr.Events) {
		r.tr.Events = slices.Grow(r.tr.Events, max(n, 256))
	}
	r.tr.Events = append(r.tr.Events, ev)
}

// thread interns a simulated thread slot, naming threads "t0", "t1", …
// in first-event order (deterministic: the simulation's event order is).
// Slots are the engine's dense thread indices, so a slice indexed by
// slot replaces a map.
func (r *Recorder) thread(slot int) int32 {
	if slot < len(r.threadIdx) {
		if idx := r.threadIdx[slot]; idx != 0 {
			return idx - 1
		}
	} else {
		r.threadIdx = append(r.threadIdx, make([]int32, slot+1-len(r.threadIdx))...)
	}
	idx := int32(len(r.tr.Threads))
	r.threadIdx[slot] = idx + 1
	r.tr.Threads = append(r.tr.Threads, fmt.Sprintf("t%d", idx))
	return idx
}

// Enter and Exit implement the VM HeapProfiler shadow-stack hooks; the
// recorder attributes flat sites, so they are no-ops.
func (r *Recorder) Enter(thread int, fn string, now int64) {}

// Exit implements the VM HeapProfiler hook.
func (r *Recorder) Exit(thread int, now int64) {}

// Alloc implements the VM HeapProfiler birth hook: a program-level
// birth at a known MiniCC site annotates the allocator-level event
// that produced the block. Pool hits (no allocator traffic) miss the
// live map and are ignored — the trace records allocator requests.
func (r *Recorder) Alloc(thread int, site, class string, bytes int64, ref mem.Ref) {
	seq, ok := r.liveSeq[ref]
	if !ok {
		return
	}
	leaf := site
	if class != "" {
		leaf = site + "(" + class + ")"
	}
	r.tr.Events[seq].Site = r.site(leaf)
}

// Free implements the VM HeapProfiler death hook (allocator-level
// frees already arrive via ObserveFree).
func (r *Recorder) Free(thread int, ref mem.Ref) {}

// site interns an allocation-site string.
func (r *Recorder) site(s string) int32 {
	if idx, ok := r.sites[s]; ok {
		return idx
	}
	idx := int32(len(r.tr.Sites))
	r.sites[s] = idx
	r.tr.Sites = append(r.tr.Sites, s)
	return idx
}

// Trace returns the captured trace. The recorder retains ownership;
// call it after the run completes.
func (r *Recorder) Trace() *Trace { return &r.tr }
