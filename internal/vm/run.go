package vm

import (
	"fmt"
	"strings"

	"amplify/internal/alloc"
	"amplify/internal/cc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/telemetry"

	_ "amplify/internal/hoard"
	_ "amplify/internal/lfalloc"
	_ "amplify/internal/lkmalloc"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

// Config parameterizes VM execution; the fields mirror interp.Config.
type Config struct {
	Processors int
	Strategy   string
	Pool       pool.Config
	// MaxSteps bounds each simulated thread's work units (default 50
	// million), like the interpreter's per-thread statement budget.
	MaxSteps int64
	Tracer   sim.Tracer
	// TraceMask restricts which event kinds reach the tracer (zero
	// means all).
	TraceMask sim.Mask
	// Profiler receives function enter/exit hooks, stamped with the
	// exact virtual time: reading the clock applies the thread's pending
	// work units first.
	Profiler Profiler
	// HeapObserver receives allocator and pool events (alloc.Observer).
	// It is threaded to the underlying allocator and the pool runtime;
	// when it also implements alloc.Watcher (or WatchPools), it is
	// attached to the run's address space, allocator and pool runtime
	// before execution. Observation is host-side only — a non-nil
	// observer never changes makespans.
	HeapObserver alloc.Observer
	// HeapProf receives allocation-site hooks (births and deaths keyed
	// by the compiled Sites table) plus the same Enter/Exit shadow-stack
	// hooks as Profiler. Like every observer it never changes
	// makespans.
	HeapProf HeapProfiler
	// NoOpt makes RunSource compile without the peephole pass (see
	// Options.NoOpt). Programs compiled with Compile/CompileOpts carry
	// their own setting and ignore this field.
	NoOpt bool
	// Spans records host-time pipeline spans (parse/sema/compile/
	// simulate) on the given telemetry recorder. Purely host-side
	// bookkeeping: span durations are wall-clock, span attributes are
	// deterministic simulated numbers, and a non-nil recorder never
	// changes makespans.
	Spans *telemetry.Recorder
}

// Profiler observes function activations in virtual time. The VM calls
// Enter on every call and Exit on every return, stamped with the
// simulated clock; obsv.Profiler implements it (the interface lives
// here so the VM does not depend on the exporter package). A nil
// profiler costs one branch per call.
type Profiler interface {
	Enter(thread int, fn string, now int64)
	Exit(thread int, now int64)
}

// HeapProfiler observes allocation sites: every program-level birth
// (new, new[], pool alloc, realloc) and death (delete, delete[], pool
// free, shadow save, realloc) with the "fn@line" site the compiler
// recorded and the shadow call stack maintained via Enter/Exit.
// heapobsv.SiteProfile implements it (the interface lives here so the
// VM does not depend on the exporter package). Pool hits and shadow
// reuses count as births/deaths too: the profile tracks program-level
// object lifetimes, not allocator traffic.
type HeapProfiler interface {
	Enter(thread int, fn string, now int64)
	Exit(thread int, now int64)
	Alloc(thread int, site, class string, bytes int64, ref mem.Ref)
	Free(thread int, ref mem.Ref)
}

func (c Config) withDefaults() Config {
	if c.Processors <= 0 {
		c.Processors = 8
	}
	if c.Strategy == "" {
		c.Strategy = "serial"
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	return c
}

// Result mirrors interp.Result for the VM engine.
type Result struct {
	Output       string
	ExitCode     int64
	Makespan     int64
	Sim          sim.Stats
	Alloc        alloc.Stats
	PoolHits     int64
	PoolMisses   int64
	ShadowReuses int64
	Footprint    int64
	// Heap is the allocator's post-run introspection snapshot
	// (fragmentation, free-list state, per-arena occupancy).
	Heap alloc.HeapInfo
	// Pools breaks the pool counters down per class.
	Pools []PoolStat
}

// PoolStat is one class pool's counters.
type PoolStat struct {
	Class    string `json:"class"`
	Size     int64  `json:"size"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	Released int64  `json:"released"`
	Steals   int64  `json:"steals"`
	Retained int    `json:"retained"`
}

// RunSource parses, analyzes, compiles and runs a MiniCC program.
func RunSource(src string, cfg Config) (Result, error) {
	sp := cfg.Spans.Start("parse").Set("src_bytes", int64(len(src)))
	prog, err := cc.Parse(src)
	sp.End()
	if err != nil {
		return Result{}, err
	}
	sp = cfg.Spans.Start("sema")
	err = cc.Analyze(prog)
	sp.End()
	if err != nil {
		return Result{}, err
	}
	sp = cfg.Spans.Start("compile")
	compiled, err := CompileOpts(prog, Options{NoOpt: cfg.NoOpt})
	if err != nil {
		sp.End()
		return Result{}, err
	}
	sp.Set("functions", int64(len(compiled.Fns))).End()
	return Run(compiled, cfg)
}

// Run executes a compiled program on the simulated machine.
func Run(p *Program, cfg Config) (res Result, err error) {
	cfg = cfg.withDefaults()
	span := cfg.Spans.Start("simulate")
	defer span.End()
	mainID, ok := p.FuncID["main"]
	if !ok {
		return res, fmt.Errorf("vm: program has no main function")
	}
	e := sim.New(sim.Config{Processors: cfg.Processors, Tracer: cfg.Tracer, TraceMask: cfg.TraceMask})
	sp := mem.NewSpace()
	under, err := alloc.New(cfg.Strategy, e, sp, alloc.Options{Observer: cfg.HeapObserver})
	if err != nil {
		return res, err
	}
	pcfg := cfg.Pool
	pcfg.Observer = cfg.HeapObserver
	if !p.Src.UsesThreads {
		pcfg.SingleThreaded = true
	}
	m := &machine{
		p:        p,
		cfg:      cfg,
		e:        e,
		alloc:    under,
		rt:       pool.NewRuntime(e, under, pcfg),
		pools:    make([]*pool.ClassPool, len(p.classes)),
		ics:      make([]methodIC, p.methodSites),
		joinable: e.NewWaitGroup(),
		prof:     cfg.Profiler,
		hp:       cfg.HeapProf,
	}
	if cfg.HeapObserver != nil {
		if w, ok := cfg.HeapObserver.(alloc.Watcher); ok {
			w.Watch(sp, under)
		}
		if w, ok := cfg.HeapObserver.(interface{ WatchPools(*pool.Runtime) }); ok {
			w.WatchPools(m.rt)
		}
	}
	e.Go("main", func(c *sim.Ctx) {
		ret := m.execClosure(m.newThread(c), p.Fns[mainID], mem.Nil, nil)
		m.exitCode = ret.i
	})
	defer func() {
		if r := recover(); r != nil {
			ve, ok := r.(*vmError)
			if !ok {
				panic(r)
			}
			err = ve
		}
	}()
	res.Makespan = e.Run()
	res.Output = m.out.String()
	res.ExitCode = m.exitCode
	res.Sim = e.Stats()
	res.Alloc = under.Stats()
	res.ShadowReuses = m.rt.ShadowReuses
	res.Footprint = sp.Footprint()
	if insp, ok := under.(alloc.Inspector); ok {
		res.Heap = insp.Inspect()
	}
	span.Set("makespan", res.Makespan).
		Set("allocs", res.Alloc.Allocs).
		Set("footprint", res.Footprint)
	for _, pl := range m.rt.Pools() {
		res.PoolHits += pl.Hits
		res.PoolMisses += pl.Misses
		res.Pools = append(res.Pools, PoolStat{
			Class:    pl.Class(),
			Size:     pl.Size(),
			Hits:     pl.Hits,
			Misses:   pl.Misses,
			Released: pl.Released,
			Steals:   pl.Steals,
			Retained: pl.FreeCount(),
		})
	}
	return res, nil
}

// vmError is a runtime fault, carrying the faulting site so the message
// reads "... (at fn@pc: op)".
type vmError struct {
	msg string
	fn  string
	pc  int
	op  string
}

func (e *vmError) Error() string {
	if e.fn == "" {
		return "vm: " + e.msg
	}
	return fmt.Sprintf("vm: %s (at %s@%d: %s)", e.msg, e.fn, e.pc, e.op)
}

// fail raises a runtime fault annotated with the faulting thread's
// current function, pc and opcode. It syncs first, so a fault is raised
// at the virtual time per-unit charging would raise it: a peer that is
// due earlier runs first and, if it faults too, its fault is reported.
func (m *machine) fail(format string, args ...any) {
	th := m.threads[m.e.Current().Slot()]
	th.c.Sync()
	e := &vmError{msg: fmt.Sprintf(format, args...)}
	if th.fn != nil {
		e.fn = th.fn.Name
		e.pc = th.pc
		if th.pc >= 0 && th.pc < len(th.fn.Code) {
			e.op = th.fn.Code[th.pc].Op.String()
		}
	}
	panic(e)
}

// value is the VM's runtime value.
type value struct {
	kind byte // 'i', 's', 'r'
	i    int64
	s    string
	ref  mem.Ref
}

func iv(n int64) value   { return value{kind: 'i', i: n} }
func rv(r mem.Ref) value { return value{kind: 'r', ref: r} }
func (v value) truthy() bool {
	return (v.kind == 'i' && v.i != 0) || (v.kind == 'r' && v.ref != mem.Nil)
}
func (v value) text() string {
	switch v.kind {
	case 'i':
		return fmt.Sprintf("%d", v.i)
	case 's':
		return v.s
	case 'r':
		if v.ref == mem.Nil {
			return "null"
		}
		return fmt.Sprintf("0x%x", uint64(v.ref))
	}
	return "?"
}

type objState int8

const (
	stLive objState = iota
	stDestroyed
	stFreed
)

// methodIC is a per-call-site monomorphic inline cache: the last
// receiver class seen at an OpMethod site and the resolved body. Caches
// live on the machine (one array entry per site, indexed by the
// instruction's C operand), so a Program stays immutable and shareable
// across runs. They never need invalidation: classes and vtables are
// fixed at compile time.
type methodIC struct {
	class *classInfo
	fn    *Fn
}

// thread is one simulated thread's VM state: its simulator context, the
// site it executes (for fault messages) and its step count. Every
// simulated thread has its own, so a peer running while this thread is
// suspended cannot overwrite its fault site.
type thread struct {
	c     *sim.Ctx
	fn    *Fn
	pc    int
	steps int64
	// limit is the step count past which pre takes its slow path:
	// MaxSteps, or -1 where the engine does not defer work units (a
	// tracer recording preemptions), so that every step's units are
	// charged as the step runs.
	limit int64
}

type machine struct {
	p     *Program
	cfg   Config
	e     *sim.Engine
	alloc alloc.Allocator
	rt    *pool.Runtime
	// pools is indexed by class id (dense, from the Program).
	pools []*pool.ClassPool
	// h maps refs to object/buffer records with no map hashing.
	h handleTable
	// ics holds one inline cache per OpMethod site.
	ics []methodIC
	// Per-opcode last-ref memos (see refCache).
	cLoadField, cStoreField, cIndexLoad, cIndexStore, cMethod, cMisc refCache
	// stacks is a free list of activation buffers (locals plus operand
	// stack), recycled across activations. The simulator runs one thread
	// at a time (one scheduler loop), so sharing it machine-wide is safe.
	stacks [][]value
	// argScratch passes one- or two-value argument lists without
	// allocating; execClosure copies arguments into the callee frame
	// before anything else runs, so the scratch is immediately reusable.
	argScratch [2]value
	joinable   *sim.WaitGroup
	spawned    int
	// threads holds each simulated thread's VM state, by thread slot.
	threads []*thread
	// cframes recycles activation records.
	cframes  []*cframe
	prof     Profiler
	hp       HeapProfiler
	out      strings.Builder
	exitCode int64
}

// newThread registers the VM state of the simulated thread c belongs
// to; every thread function calls it before running any code.
func (m *machine) newThread(c *sim.Ctx) *thread {
	th := &thread{c: c, limit: m.cfg.MaxSteps}
	if !c.Deferred() {
		th.limit = -1
	}
	id := c.ThreadID()
	for len(m.threads) <= id {
		m.threads = append(m.threads, nil)
	}
	m.threads[id] = th
	return th
}

func (m *machine) poolFor(ci *classInfo) *pool.ClassPool {
	pl := m.pools[ci.id]
	if pl == nil {
		pl = m.rt.NewClassPool(ci.decl.Name, ci.decl.Size)
		m.pools[ci.id] = pl
	}
	return pl
}

// privatePoolFor is poolFor in lock-free thread-private mode, used for
// classes the escape analysis proved thread-local (OpPoolAlloc/
// OpPoolFree with B=1). The rewriter routes each class through exactly
// one mode, so the shared table never holds a pool of the wrong kind.
func (m *machine) privatePoolFor(ci *classInfo) *pool.ClassPool {
	pl := m.pools[ci.id]
	if pl == nil {
		pl = m.rt.NewPrivateClassPool(ci.decl.Name, ci.decl.Size)
		m.pools[ci.id] = pl
	}
	return pl
}

// objSlot resolves an object reference through the per-opcode cache,
// then the handle table. Destroyed-but-not-freed objects pass (field
// access on a destroyed object mirrors still-owned memory); freed ones
// fault.
func (m *machine) objSlot(ref mem.Ref, cache *refCache) *hslot {
	if ref == mem.Nil {
		m.fail("null pointer dereference")
	}
	s := cache.slot
	if s == nil || cache.ref != ref {
		s = m.h.lookup(ref)
		if s == nil {
			m.fail("reference 0x%x is not an object", uint64(ref))
		}
		cache.ref, cache.slot = ref, s
	}
	if s.kind != hObj {
		m.fail("reference 0x%x is not an object", uint64(ref))
	}
	if s.state == stFreed {
		m.fail("use after free of %s object", s.class.decl.Name)
	}
	return s
}

// liveSlot is objSlot restricted to fully-constructed objects.
func (m *machine) liveSlot(ref mem.Ref, cache *refCache) *hslot {
	s := m.objSlot(ref, cache)
	if s.state != stLive {
		m.fail("use of destroyed %s object", s.class.decl.Name)
	}
	return s
}

// bufSlot resolves a buffer reference; freed buffers fault.
func (m *machine) bufSlot(ref mem.Ref, cache *refCache) *hslot {
	if ref == mem.Nil {
		m.fail("null buffer dereference")
	}
	s := cache.slot
	if s == nil || cache.ref != ref {
		s = m.h.lookup(ref)
		if s == nil {
			m.fail("reference 0x%x is not a buffer", uint64(ref))
		}
		cache.ref, cache.slot = ref, s
	}
	if s.kind != hBuf {
		m.fail("reference 0x%x is not a buffer", uint64(ref))
	}
	if s.state == stFreed {
		m.fail("use after free of buffer")
	}
	return s
}

func (m *machine) putStack(s []value) { m.stacks = append(m.stacks, s) }

func (m *machine) arith(op Op, x, y value) value {
	if x.kind == 'r' || y.kind == 'r' {
		eq := x.ref == y.ref && x.i == y.i && x.kind == y.kind
		switch op {
		case OpEq:
			if eq {
				return iv(1)
			}
			return iv(0)
		case OpNe:
			if eq {
				return iv(0)
			}
			return iv(1)
		}
		m.fail("invalid pointer arithmetic")
	}
	b := func(cond bool) value {
		if cond {
			return iv(1)
		}
		return iv(0)
	}
	switch op {
	case OpAdd:
		return iv(x.i + y.i)
	case OpSub:
		return iv(x.i - y.i)
	case OpMul:
		return iv(x.i * y.i)
	case OpDiv:
		if y.i == 0 {
			m.fail("division by zero")
		}
		return iv(x.i / y.i)
	case OpMod:
		if y.i == 0 {
			m.fail("modulo by zero")
		}
		return iv(x.i % y.i)
	case OpEq:
		return b(x.i == y.i)
	case OpNe:
		return b(x.i != y.i)
	case OpLt:
		return b(x.i < y.i)
	case OpLe:
		return b(x.i <= y.i)
	case OpGt:
		return b(x.i > y.i)
	case OpGe:
		return b(x.i >= y.i)
	}
	m.fail("bad arith op")
	return value{}
}

func (m *machine) runCtor(th *thread, ci *classInfo, ref mem.Ref, args []value) {
	if ci.ctor >= 0 {
		m.execClosure(th, m.p.Fns[ci.ctor], ref, args)
	}
}

func (m *machine) runDtor(th *thread, s *hslot, ref mem.Ref) {
	if s.class.dtor >= 0 {
		m.execClosure(th, m.p.Fns[s.class.dtor], ref, nil)
		th.c.Sync()
	}
	s.state = stDestroyed
}

func (m *machine) doNew(th *thread, ci *classInfo, placement value, args []value, site int32) value {
	c := th.c
	c.Sync()
	if placement.kind == 'r' && placement.ref != mem.Nil {
		s := m.objSlot(placement.ref, &m.cMisc)
		if s.class != ci {
			m.fail("placement new: shadow holds %s, want %s", s.class.decl.Name, ci.decl.Name)
		}
		if s.state != stLive {
			s.state = stLive
			m.runCtor(th, ci, placement.ref, args)
			return rv(placement.ref)
		}
		// Live shadow: the structure is not identical — reorganize by
		// allocating normally (§3.2).
	}
	var ref mem.Ref
	if ci.opNew >= 0 {
		m.argScratch[0] = iv(ci.decl.Size)
		v := m.execClosure(th, m.p.Fns[ci.opNew], mem.Nil, m.argScratch[:1])
		c.Sync()
		if v.kind != 'r' || v.ref == mem.Nil {
			m.fail("operator new of %s returned %s", ci.decl.Name, v.text())
		}
		s := m.h.lookup(v.ref)
		if s == nil || s.kind != hObj {
			m.fail("operator new of %s returned a non-object reference", ci.decl.Name)
		}
		s.state = stLive
		ref = v.ref
	} else {
		ref = m.alloc.Alloc(c, ci.decl.Size)
		m.h.ensure(ref).setObject(ci)
		c.Trace(sim.EvAlloc, ci.decl.Name, ci.decl.Size, int64(ref))
		// The operator-new path above allocates inside ci.opNew and
		// records its birth at the inner OpPoolAlloc/OpNewArray site;
		// only the direct path records here.
		if m.hp != nil {
			m.hp.Alloc(c.ThreadID(), m.p.Sites[site], ci.decl.Name, ci.decl.Size, ref)
		}
	}
	m.runCtor(th, ci, ref, args)
	return rv(ref)
}

func (m *machine) doDelete(th *thread, v value) {
	c := th.c
	c.Sync()
	if v.kind != 'r' {
		m.fail("delete of non-pointer value")
	}
	if v.ref == mem.Nil {
		return
	}
	s := m.liveSlot(v.ref, &m.cMisc)
	m.runDtor(th, s, v.ref)
	if s.class.opDelete >= 0 {
		m.argScratch[0] = rv(v.ref)
		m.execClosure(th, m.p.Fns[s.class.opDelete], v.ref, m.argScratch[:1])
		return
	}
	s.state = stFreed
	m.alloc.Free(c, v.ref)
	c.Trace(sim.EvFree, s.class.decl.Name, int64(v.ref), 0)
	if m.hp != nil {
		m.hp.Free(c.ThreadID(), v.ref)
	}
}

func (m *machine) newBuffer(c *sim.Ctx, elemSize int32, n int64, site int32) value {
	c.Sync()
	if n < 0 {
		m.fail("new array with negative length %d", n)
	}
	if n > cc.MaxArrayLen {
		m.fail("new array length %d exceeds the %d-element limit", n, cc.MaxArrayLen)
	}
	size := n * int64(elemSize)
	if size == 0 {
		size = 1
	}
	ref := m.alloc.Alloc(c, size)
	m.h.ensure(ref).setBuffer(elemSize, n, m.alloc.UsableSize(ref))
	c.Trace(sim.EvAlloc, "buffer", size, int64(ref))
	if m.hp != nil {
		m.hp.Alloc(c.ThreadID(), m.p.Sites[site], "", size, ref)
	}
	return rv(ref)
}

func (m *machine) doRealloc(c *sim.Ctx, ptr value, n int64, site int32) value {
	c.Sync()
	if n < 0 {
		m.fail("realloc: negative size")
	}
	var prev *hslot
	var prevUsable int64
	elemSize := int32(1)
	if ptr.ref != mem.Nil {
		prev = m.bufSlot(ptr.ref, &m.cMisc)
		prevUsable = prev.usable
		elemSize = prev.elemSize
	}
	length := n / int64(elemSize)
	if length > cc.MaxArrayLen {
		m.fail("realloc: size %d exceeds the %d-element limit", n, cc.MaxArrayLen)
	}
	size := n
	if size == 0 {
		size = 1
	}
	ref, usable := m.rt.ShadowRealloc(c, ptr.ref, prevUsable, size)
	// A realloc is a death plus a birth at this site even when the
	// shadow hands the same block back — the program-level object is
	// new. The old ref may already be dead (shadow-saved); Free of an
	// unknown ref is a no-op.
	if m.hp != nil {
		if ptr.ref != mem.Nil {
			m.hp.Free(c.ThreadID(), ptr.ref)
		}
		m.hp.Alloc(c.ThreadID(), m.p.Sites[site], "", size, ref)
	}
	if prev != nil && ref == ptr.ref {
		prev.length = length
		if int64(len(prev.data)) < length {
			nd := make([]int64, length)
			copy(nd, prev.data)
			prev.data = nd
		} else {
			prev.data = prev.data[:length]
		}
		prev.state = stLive
		return rv(ref)
	}
	if prev != nil {
		prev.state = stFreed
	}
	m.h.ensure(ref).setBuffer(elemSize, length, usable)
	return rv(ref)
}
