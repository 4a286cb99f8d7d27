package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scriptOp is one action of a randomized thread script.
type scriptOp struct {
	kind  byte // 'u' Units, 'w' Work, 'r' Read, 'x' Write, 'l' locked section, 'g' Go
	n     int64
	addr  uint64
	mu    int
	child []scriptOp
}

// genScript draws a thread script dominated by pure work units — the
// shape of a VM thread — mixed with charges, shared-line traffic, lock
// sections and (up to depth) spawns.
func genScript(rng *rand.Rand, n, depth int) []scriptOp {
	s := make([]scriptOp, 0, n)
	for range n {
		var op scriptOp
		switch k := rng.Intn(100); {
		case k < 60:
			op = scriptOp{kind: 'u', n: int64(rng.Intn(40))}
		case k < 70:
			op = scriptOp{kind: 'w', n: 1 + int64(rng.Intn(20))}
		case k < 80:
			op = scriptOp{kind: 'r', addr: 1<<20 + uint64(rng.Intn(6))*64}
		case k < 88:
			op = scriptOp{kind: 'x', addr: 1<<20 + uint64(rng.Intn(6))*64}
		case k < 96:
			op = scriptOp{kind: 'l', mu: rng.Intn(2), n: int64(rng.Intn(30)), addr: 2<<20 + uint64(rng.Intn(3))*64}
		default:
			if depth == 0 {
				op = scriptOp{kind: 'u', n: 1}
			} else {
				op = scriptOp{kind: 'g', child: genScript(rng, n/2, depth-1)}
			}
		}
		s = append(s, op)
	}
	return s
}

// runScript executes s on c. perUnit replaces every Units(n) by n
// calls of Work(1), the reference Units must match.
func runScript(c *Ctx, s []scriptOp, mus []*Mutex, perUnit bool) {
	units := func(n int64) {
		if !perUnit {
			c.Units(n)
			return
		}
		for range n {
			c.Work(1)
		}
	}
	for i, op := range s {
		switch op.kind {
		case 'u':
			units(op.n)
		case 'w':
			c.Work(op.n)
		case 'r':
			c.Read(op.addr, 8)
		case 'x':
			c.Write(op.addr, 8)
		case 'l':
			mus[op.mu].Lock(c)
			units(op.n)
			c.Write(op.addr, 8)
			mus[op.mu].Unlock(c)
		case 'g':
			child := op.child
			c.Go(fmt.Sprintf("t%d.%d", c.ThreadID(), i), func(cc *Ctx) {
				runScript(cc, child, mus, perUnit)
			})
		}
	}
	units(int64(len(s) % 7)) // left pending at exit
}

// unitsOutcome is everything a run exposes to compare.
type unitsOutcome struct {
	Makespan int64
	Stats    Stats
	Clocks   []int64
	Migrated []int64
	Events   []Event
}

func runScripts(cfg Config, scripts [][]scriptOp, perUnit bool) unitsOutcome {
	rec := &Recorder{Max: 1 << 20}
	cfg.Tracer = rec
	e := New(cfg)
	mus := []*Mutex{e.NewMutexAt("a", 3<<20), e.NewMutex("b")}
	for i, s := range scripts {
		e.Go(fmt.Sprintf("t%d", i), func(c *Ctx) { runScript(c, s, mus, perUnit) })
	}
	var out unitsOutcome
	out.Makespan = e.Run()
	out.Stats = e.Stats()
	for _, t := range e.Threads() {
		out.Clocks = append(out.Clocks, t.Clock())
		out.Migrated = append(out.Migrated, t.Migrations)
	}
	out.Events = rec.Snapshot()
	return out
}

// TestUnitsMatchWork pins Ctx.Units(n) to n calls of Work(1) on
// randomized scripts: per-thread clocks, statistics, makespan and the
// recorded event stream must be identical in every scheduling regime —
// undersubscribed, oversubscribed (dilation and migration), spawns
// pushing the thread count past P mid-run, and the Exact and
// linear-scan references, where units take the per-unit path. The
// recorder masks EvPreempt, which in-place settlement by design does
// not emit; the last regime records it, forcing the per-unit path.
func TestUnitsMatchWork(t *testing.T) {
	noPreempt := AllEvents &^ MaskOf(EvPreempt)
	linear := Config{Processors: 3, TraceMask: noPreempt}
	linear.linearScan = true
	regimes := []struct {
		name    string
		cfg     Config
		threads int
		depth   int
	}{
		{"T<=P", Config{Processors: 8, TraceMask: noPreempt}, 4, 1},
		{"T>P", Config{Processors: 2, MigrationPeriod: 700, TraceMask: noPreempt}, 5, 0},
		{"spawn-past-P", Config{Processors: 3, MigrationPeriod: 900, TraceMask: noPreempt}, 2, 2},
		{"exact", Config{Processors: 3, MigrationPeriod: 900, Exact: true, TraceMask: noPreempt}, 4, 1},
		{"linear-scan", linear, 4, 1},
		{"traced-preempt", Config{Processors: 3, MigrationPeriod: 900}, 4, 1},
	}
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				scripts := make([][]scriptOp, r.threads)
				for i := range scripts {
					scripts[i] = genScript(rng, 20+rng.Intn(40), r.depth)
				}
				want := runScripts(r.cfg, scripts, true)
				got := runScripts(r.cfg, scripts, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Units diverges from Work(1)\nunits:    makespan %d clocks %v stats %+v\nper-unit: makespan %d clocks %v stats %+v\nevents %d vs %d",
						seed, got.Makespan, got.Clocks, got.Stats, want.Makespan, want.Clocks, want.Stats, len(got.Events), len(want.Events))
				}
			}
		})
	}
}

// TestUnitsSettleOnPanic checks a thread that panics with units pending
// completes at the clock n Work(1) calls would have reached.
func TestUnitsSettleOnPanic(t *testing.T) {
	for _, perUnit := range []bool{false, true} {
		e := New(Config{Processors: 2})
		th := e.Go("t", func(c *Ctx) {
			if perUnit {
				for range 100 {
					c.Work(1)
				}
			} else {
				c.Units(100)
			}
			panic(sentinelPanic{})
		})
		func() {
			defer func() {
				if _, ok := recover().(sentinelPanic); !ok {
					t.Fatal("expected the thread's panic")
				}
			}()
			e.Run()
		}()
		if th.Clock() != 100 {
			t.Errorf("perUnit=%v: completion clock %d, want 100", perUnit, th.Clock())
		}
	}
}

type sentinelPanic struct{}
