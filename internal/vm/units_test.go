package vm

import (
	"reflect"
	"testing"

	"amplify/internal/core"
	"amplify/internal/mccgen"
	"amplify/internal/sim"
	"amplify/internal/workload"
)

// discard is a Tracer that drops every event. It records EvPreempt,
// which in-place settlement would not emit, so attaching it makes the
// simulator charge every deferred work unit on the per-unit path: the
// reference the deferred runs are pinned to.
type discard struct{}

func (discard) Event(sim.Event) {}

// collect keeps the first events it is given, EvPreempt left out so a
// per-unit stream compares with a deferred one.
type collect struct {
	events []sim.Event
	seen   int
}

func (c *collect) Event(ev sim.Event) {
	if ev.Kind == sim.EvPreempt {
		return
	}
	c.seen++
	if len(c.events) < 50_000 {
		c.events = append(c.events, ev)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDeferred runs src with deferred work units and on the per-unit
// path and requires identical results — output bytes in their
// unsorted, schedule-dependent order included — or identical errors.
// With events, it also compares the event streams (EvPreempt aside) of
// a deferred run whose tracer masks EvPreempt and a per-unit one.
func checkDeferred(t *testing.T, label, src string, cfg Config, events bool) {
	t.Helper()
	got, gErr := RunSource(src, cfg)
	ref := cfg
	ref.Tracer = discard{}
	want, wErr := RunSource(src, ref)
	if errText(gErr) != errText(wErr) {
		t.Fatalf("%s: deferred err %q, per-unit err %q", label, errText(gErr), errText(wErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: deferred units changed the run\ndeferred: %+v\nper-unit: %+v", label, got, want)
	}
	if !events {
		return
	}
	var deferred, perUnit collect
	dcfg := cfg
	dcfg.Tracer, dcfg.TraceMask = &deferred, sim.AllEvents&^sim.MaskOf(sim.EvPreempt)
	_, dErr := RunSource(src, dcfg)
	pcfg := cfg
	pcfg.Tracer = &perUnit
	_, pErr := RunSource(src, pcfg)
	if errText(dErr) != errText(wErr) || errText(pErr) != errText(wErr) {
		t.Fatalf("%s: traced runs err %q / %q, want %q", label, errText(dErr), errText(pErr), errText(wErr))
	}
	if deferred.seen != perUnit.seen || !reflect.DeepEqual(deferred.events, perUnit.events) {
		t.Fatalf("%s: event streams differ: %d deferred events, %d per-unit", label, deferred.seen, perUnit.seen)
	}
}

// TestDeferredUnitsMatchPerUnit pins deferred work charging to per-unit
// charging on threaded generated programs, plain and Amplify-rewritten
// with and without escape analysis, under every allocator, on an
// 8-processor machine and an oversubscribed 2-processor one (dilation
// and migration).
func TestDeferredUnitsMatchPerUnit(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for threads := 2; threads <= 4; threads++ {
		for _, seed := range seeds {
			src := mccgen.Generate(mccgen.Config{Seed: seed, Threads: threads, Iterations: 8})
			variants := map[string]string{"plain": src}
			for _, escape := range []bool{false, true} {
				amped, _, err := core.Rewrite(src, core.Options{Escape: escape})
				if err != nil {
					t.Fatal(err)
				}
				name := "amplified"
				if escape {
					name = "escape"
				}
				variants[name] = amped
			}
			for name, program := range variants {
				for _, strategy := range workload.ReplayStrategies() {
					for _, procs := range []int{8, 2} {
						label := name + "/" + strategy
						cfg := Config{Strategy: strategy, Processors: procs}
						checkDeferred(t, label, program, cfg, strategy == "ptmalloc")
					}
				}
			}
		}
	}
}

// faultSrc faults in f while g, spawned first, is still running.
const faultSrc = `void g(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}print(s);}
void f(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}int* a=new int[2];a[5]=s;}
int main(){spawn g(100000);spawn f(50);join;return 0;}`

// TestFaultSiteIsPerThread checks a fault names the faulting thread's
// own site, not that of a peer that ran while it was suspended: the
// two-thread fault reads exactly as the one-thread fault does, and
// deferred charging raises it as per-unit charging does.
func TestFaultSiteIsPerThread(t *testing.T) {
	alone := `void f(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}int* a=new int[2];a[5]=s;}
int main(){spawn f(50);join;return 0;}`
	_, want := RunSource(alone, Config{})
	if want == nil {
		t.Fatal("expected an index fault")
	}
	_, got := RunSource(faultSrc, Config{})
	if errText(got) != errText(want) {
		t.Fatalf("two-thread fault %q, want %q", errText(got), errText(want))
	}
	checkDeferred(t, "fault", faultSrc, Config{}, true)
	checkDeferred(t, "fault/oversubscribed", faultSrc, Config{Processors: 1}, true)
}

// hostRaces are threaded programs whose results hinge on when host code
// touches state other threads see. In each, the thread spawned first
// runs a long pure loop, so with its work units deferred its host code
// runs ahead of the virtual time per-unit charging would run it at;
// only the Sync before the shared access puts it back in order.
var hostRaces = map[string]string{
	// Output order: the short worker prints first.
	"print": `void w(int id, int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}print(id);}
int main(){spawn w(1,10000);spawn w(2,30);join;return 0;}`,
	// Which fault is reported: the one raised earlier in virtual time.
	"fault": `void a(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}int z=0;print(s/z);}
void b(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}int z=0;print(s%z);}
int main(){spawn a(10000);spawn b(30);join;return 0;}`,
	// A method call on an object another thread deleted meanwhile.
	"method": `class C { public: C(){x=1;} int get(){return x;} int x; };
void a(C* c,int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}print(c->get());}
void b(C* c,int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}delete c;}
int main(){C* c=new C();spawn a(c,10000);spawn b(c,30);join;return 0;}`,
	// A field of this read after another thread deleted the object.
	"field": `class C { public: C(){x=1;} int get(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}return s+x;} int x; };
void a(C* c){print(c->get(10000));}
void b(C* c,int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}delete c;}
int main(){C* c=new C();spawn a(c);spawn b(c,30);join;return 0;}`,
	// An object still live while its destructor runs.
	"dtor": `class C { public: C(){x=1;} ~C(){int s=0;for(int i=0;i<10000;i=i+1){s=s+i;}} int get(){return x;} int x; };
void a(C* c){delete c;}
void b(C* c,int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}print(c->get());}
int main(){C* c=new C();spawn a(c);spawn b(c,30);join;return 0;}`,
	// Spawned-thread numbering, visible in the event stream.
	"spawn": `void leaf(int id){print(id);}
void a(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}spawn leaf(1);}
void b(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;}spawn leaf(2);}
int main(){spawn a(10000);spawn b(30);join;return 0;}`,
	// Class pools are created, and reported, in first-use order.
	"pools": `class A { public: A(){x=1;} int x; };
class B { public: B(){y=2;} int y; };
void a(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;} void* p=__pool_alloc(A);}
void b(int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;} void* q=__pool_alloc(B);}
int main(){spawn a(10000);spawn b(30);join;return 0;}`,
	// Placement new into a shadow another thread freed meanwhile.
	"placement": `class C { public: C(){x=1;} int x; };
void a(C* p,int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;} C* q=new(p) C(); print(q->x);}
void b(C* p,int n){int s=0;for(int i=0;i<n;i=i+1){s=s+i;} delete p;}
int main(){C* p=new C();spawn a(p,10000);spawn b(p,30);join;return 0;}`,
}

// TestDeferredUnitsOrderHostState runs the host races plain and
// Amplify-rewritten, deferred against per-unit.
func TestDeferredUnitsOrderHostState(t *testing.T) {
	for name, src := range hostRaces {
		amped, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, procs := range []int{8, 1} {
			checkDeferred(t, name, src, Config{Processors: procs}, true)
			checkDeferred(t, name+"/amplified", amped, Config{Processors: procs}, true)
		}
	}
}
