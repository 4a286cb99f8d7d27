package vm

import (
	"reflect"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/interp"
)

// FuzzVMDiff feeds arbitrary programs through both execution engines —
// the tree-walking interpreter and this VM, at -O and -no-opt — and
// requires agreement: anything the front end accepts must either run
// identically everywhere or fail everywhere. Between -O and -no-opt
// the agreement is exact down to the simulated makespan and allocation
// counters: the peephole pass carries the work charge of what it
// fuses, so optimization must be invisible to the simulated machine.
// Deferred and per-unit work charging agree just as exactly, fault
// text included. Seeds mirror internal/vet's FuzzVet corpus, plus hostile array sizes
// whose byte count overflows int64 or whose backing store would not
// fit in host memory.
func FuzzVMDiff(f *testing.F) {
	seeds := []string{
		"",
		"int main() { return 0; }",
		"class A { public: A() { } ~A() { } int x; }; int main() { A* a = new A(); delete a; return a->x; }",
		"class B { B(int n) { b = new char[n]; } ~B() { delete[] b; } char* b; }; int main() { return 0; }",
		"void w(int i) { print(i); } int main() { spawn w(1); join; return 0; }",
		"int main() { for (int i = 0; i < 3; i = i + 1) { while (i) { i = i - 1; } } return 0; }",
		"int main() { return 1 + 2 * (3 - 4) / 5 % 6; }",
		"class C { C() { x = new(xShadow) C(); } ~C() { x->~C(); } C* x; C* xShadow; }; int main() { return 0; }",
		`int main() { print("hi\n\t\\", 1 && 0 || !2); return 0; }`,
		"/* comment */ int main() { // line\n return 0; }",
		"int main() { int* a = new int[2305843009213693953]; return 0; }",
		"int main() { char* a = new char[4611686018427387904]; return 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := cc.Parse(src)
		if err != nil {
			return
		}
		if err := cc.Analyze(prog); err != nil {
			return
		}

		// A low step budget keeps pathological fuzz programs fast; runs
		// that exhaust it are skipped rather than compared, because the
		// engines count steps differently by design.
		const maxSteps = 200_000
		stepLimited := func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "step limit exceeded")
		}

		opt, err := RunSource(src, Config{MaxSteps: maxSteps})
		noOpt, noOptErr := RunSource(src, Config{MaxSteps: maxSteps, NoOpt: true})

		// Deferred work units vs per-unit charging (forced by a tracer
		// that records preemptions): exact agreement, unsorted output
		// and fault text included, step-limited runs too.
		perUnit, perUnitErr := RunSource(src, Config{MaxSteps: maxSteps, Tracer: discard{}})
		if errText(err) != errText(perUnitErr) {
			t.Fatalf("deferred units changed failure: deferred err=%v, per-unit err=%v\nprogram:\n%s", err, perUnitErr, src)
		}
		if !reflect.DeepEqual(opt, perUnit) {
			t.Fatalf("deferred units changed the run:\ndeferred: %+v\nper-unit: %+v\nprogram:\n%s", opt, perUnit, src)
		}
		if stepLimited(err) || stepLimited(noOptErr) {
			t.Skip("step limit")
		}

		if (err == nil) != (noOptErr == nil) {
			t.Fatalf("optimization changed failure: -O err=%v, -no-opt err=%v\nprogram:\n%s", err, noOptErr, src)
		}
		if err == nil {
			// -O vs -no-opt: exact agreement, simulated time included.
			if opt.Output != noOpt.Output || opt.ExitCode != noOpt.ExitCode {
				t.Fatalf("optimization changed behavior:\n-O: exit=%d out=%q\n-no-opt: exit=%d out=%q\nprogram:\n%s",
					opt.ExitCode, opt.Output, noOpt.ExitCode, noOpt.Output, src)
			}
			if opt.Makespan != noOpt.Makespan {
				t.Fatalf("optimization changed makespan: %d vs %d\nprogram:\n%s",
					opt.Makespan, noOpt.Makespan, src)
			}
			if opt.Alloc != noOpt.Alloc {
				t.Fatalf("optimization changed allocation stats: %+v vs %+v\nprogram:\n%s",
					opt.Alloc, noOpt.Alloc, src)
			}
		}

		// VM vs interpreter: same observable behavior (output order can
		// differ between engines only through thread interleaving, so
		// compare sorted lines).
		iRes, iErr := interp.RunSource(src, interp.Config{MaxSteps: maxSteps})
		if stepLimited(iErr) {
			t.Skip("step limit")
		}
		if (err == nil) != (iErr == nil) {
			t.Fatalf("engines disagree on failure: vm err=%v, interp err=%v\nprogram:\n%s", err, iErr, src)
		}
		if err != nil {
			return
		}
		if sortedLines(opt.Output) != sortedLines(iRes.Output) {
			t.Fatalf("engines disagree on output:\nvm:\n%s\ninterp:\n%s\nprogram:\n%s",
				opt.Output, iRes.Output, src)
		}
		if opt.ExitCode != iRes.ExitCode {
			t.Fatalf("engines disagree on exit code: vm=%d interp=%d\nprogram:\n%s",
				opt.ExitCode, iRes.ExitCode, src)
		}
		if opt.Alloc.Allocs != iRes.Alloc.Allocs || opt.Alloc.Frees != iRes.Alloc.Frees {
			t.Fatalf("engines disagree on heap traffic: vm=%d/%d interp=%d/%d\nprogram:\n%s",
				opt.Alloc.Allocs, opt.Alloc.Frees, iRes.Alloc.Allocs, iRes.Alloc.Frees, src)
		}
	})
}
