package interp

import (
	"strings"
	"testing"

	"amplify/internal/core"
)

func run(t *testing.T, src string, cfg Config) Result {
	t.Helper()
	r, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHelloArithmetic(t *testing.T) {
	r := run(t, `
int add(int a, int b) {
    return a + b;
}

int main() {
    int x = add(2, 3) * 4;
    print("x =", x);
    print(10 / 3, 10 % 3, -x);
    return x;
}
`, Config{})
	if r.ExitCode != 20 {
		t.Errorf("exit = %d, want 20", r.ExitCode)
	}
	want := "x = 20\n3 1 -20\n"
	if r.Output != want {
		t.Errorf("output = %q, want %q", r.Output, want)
	}
}

func TestControlFlow(t *testing.T) {
	r := run(t, `
int main() {
    int sum = 0;
    for (int i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) {
            sum = sum + i;
        }
    }
    int j = 0;
    while (j < 3) {
        j = j + 1;
    }
    if (sum == 20 && j == 3 || 0) {
        print("ok");
    } else {
        print("bad");
    }
    return sum;
}
`, Config{})
	if r.ExitCode != 20 || r.Output != "ok\n" {
		t.Errorf("exit=%d output=%q", r.ExitCode, r.Output)
	}
}

func TestObjectsAndMethods(t *testing.T) {
	r := run(t, `
class Counter {
public:
    Counter(int start) {
        n = start;
    }
    ~Counter() {
    }
    void bump(int by) {
        n = n + by;
    }
    int get() {
        return n;
    }
private:
    int n;
};

int main() {
    Counter* c = new Counter(10);
    c->bump(5);
    c->bump(-2);
    int v = c->get();
    delete c;
    return v;
}
`, Config{})
	if r.ExitCode != 13 {
		t.Errorf("exit = %d, want 13", r.ExitCode)
	}
	if r.Alloc.LiveBlocks != 0 {
		t.Errorf("leaked %d blocks", r.Alloc.LiveBlocks)
	}
}

func TestBuffersAndIndexing(t *testing.T) {
	r := run(t, `
int main() {
    int* a = new int[5];
    for (int i = 0; i < 5; i = i + 1) {
        a[i] = i * i;
    }
    int sum = 0;
    for (int i = 0; i < 5; i = i + 1) {
        sum = sum + a[i];
    }
    delete[] a;
    char* b = new char[3];
    b[0] = 65;
    delete[] b;
    return sum;
}
`, Config{})
	if r.ExitCode != 30 {
		t.Errorf("exit = %d, want 30", r.ExitCode)
	}
	if r.Alloc.LiveBlocks != 0 {
		t.Errorf("leaked %d blocks", r.Alloc.LiveBlocks)
	}
}

func TestThreads(t *testing.T) {
	r := run(t, `
void worker(int id, int n) {
    __work(n * 100);
    print("worker", id, "done");
}

int main() {
    spawn worker(1, 50);
    spawn worker(2, 50);
    spawn worker(3, 50);
    join;
    print("all done");
    return 0;
}
`, Config{})
	if !strings.HasSuffix(r.Output, "all done\n") {
		t.Errorf("join did not order output:\n%s", r.Output)
	}
	if got := strings.Count(r.Output, "done"); got != 4 {
		t.Errorf("done count = %d, want 4", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"null deref", `
class A { public: A() { } int x; };
int main() { A* a = null; return a->x; }
`, "null pointer dereference"},
		{"use after free", `
class A { public: A() { } int x; };
int main() { A* a = new A(); delete a; return a->x; }
`, "use after free"},
		{"double delete", `
class A { public: A() { } int x; };
int main() { A* a = new A(); delete a; delete a; return 0; }
`, "use after free"},
		{"index range", `
int main() { int* a = new int[3]; a[3] = 1; return 0; }
`, "out of range"},
		{"div zero", `
int main() { int z = 0; return 3 / z; }
`, "division by zero"},
		{"step limit", `
int main() { while (1) { } return 0; }
`, "step limit"},
		{"no main", `
void f() { }
`, "no main function"},
		{"int array size overflows", `
int main() { int* a = new int[2305843009213693953]; return 0; }
`, "interp: 2:23: new int[2305843009213693953]: length exceeds the 1048576-element limit"},
		{"char array too large", `
int main() { char* a = new char[4611686018427387904]; return 0; }
`, "interp: 2:24: new char[4611686018427387904]: length exceeds the 1048576-element limit"},
		{"realloc too large", `
int main() { char* a = realloc(null, 4611686018427387904); return 0; }
`, "realloc: size 4611686018427387904 exceeds the 1048576-element limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{}
			if tc.name == "step limit" {
				cfg.MaxSteps = 10_000
			}
			_, err := RunSource(tc.src, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// treeProgram is the paper-style synthetic program: threads repeatedly
// build, use and destroy binary trees of Node (two child pointers plus
// three ints = the 20-byte node of §4), returning a checksum so the
// plain and amplified runs can be compared for semantic equivalence.
const treeProgram = `
class Node {
public:
    Node(int depth, int seed) {
        d1 = seed;
        d2 = seed * 2;
        d3 = 0;
        if (depth > 0) {
            left = new Node(depth - 1, seed + 1);
            right = new Node(depth - 1, seed + 2);
        }
    }
    ~Node() {
        delete left;
        delete right;
    }
    int sum() {
        int s = d1 + d2;
        if (left) {
            s = s + left->sum();
        }
        if (right) {
            s = s + right->sum();
        }
        return s;
    }
private:
    Node* left;
    Node* right;
    int d1;
    int d2;
    int d3;
};

void churn(int trees, int depth) {
    int total = 0;
    for (int t = 0; t < trees; t = t + 1) {
        Node* root = new Node(depth, t);
        total = total + root->sum();
        delete root;
    }
    print("checksum", total);
}

int main() {
    spawn churn(40, 3);
    spawn churn(40, 3);
    join;
    return 0;
}
`

func amplified(t *testing.T, src string, opt core.Options) string {
	t.Helper()
	out, _, err := core.Rewrite(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAmplifiedProgramEquivalent(t *testing.T) {
	plain := run(t, treeProgram, Config{Strategy: "serial"})
	amp := run(t, amplified(t, treeProgram, core.Options{}), Config{Strategy: "serial"})
	if plain.Output != amp.Output {
		t.Fatalf("amplified output differs:\nplain:\n%s\namplified:\n%s", plain.Output, amp.Output)
	}
	if plain.ExitCode != amp.ExitCode {
		t.Fatalf("exit codes differ: %d vs %d", plain.ExitCode, amp.ExitCode)
	}
}

func TestAmplifiedProgramAllocatesFarLess(t *testing.T) {
	plain := run(t, treeProgram, Config{Strategy: "serial"})
	amp := run(t, amplified(t, treeProgram, core.Options{}), Config{Strategy: "serial"})
	// Plain: 80 trees x 15 nodes = 1200 heap allocations. Amplified:
	// one warm structure per thread (2 x 15), everything else reused.
	if plain.Alloc.Allocs != 1200 {
		t.Errorf("plain allocs = %d, want 1200", plain.Alloc.Allocs)
	}
	if amp.Alloc.Allocs != 30 {
		t.Errorf("amplified allocs = %d, want 30 (warmup only)", amp.Alloc.Allocs)
	}
	if amp.PoolHits == 0 {
		t.Error("no pool hits recorded")
	}
}

func TestAmplifiedProgramFaster(t *testing.T) {
	plain := run(t, treeProgram, Config{Strategy: "serial"})
	amp := run(t, amplified(t, treeProgram, core.Options{}), Config{Strategy: "serial"})
	if amp.Makespan >= plain.Makespan {
		t.Errorf("amplified not faster: %d vs %d", amp.Makespan, plain.Makespan)
	}
}

func TestFlagModeEquivalent(t *testing.T) {
	plain := run(t, treeProgram, Config{Strategy: "serial"})
	flag := run(t, amplified(t, treeProgram, core.Options{Mode: core.ModeFlag}), Config{Strategy: "serial"})
	if plain.Output != flag.Output {
		t.Fatalf("flag-mode output differs:\nplain:\n%s\nflag:\n%s", plain.Output, flag.Output)
	}
	if flag.Alloc.Allocs >= plain.Alloc.Allocs {
		t.Errorf("flag mode did not reduce allocations: %d vs %d", flag.Alloc.Allocs, plain.Alloc.Allocs)
	}
}

func TestArrayShadowingProgram(t *testing.T) {
	src := `
class Msg {
public:
    Msg(int n) {
        len = n;
        buf = new char[n];
        for (int i = 0; i < n; i = i + 1) {
            buf[i] = i;
        }
    }
    ~Msg() {
        delete[] buf;
    }
    int sum() {
        int s = 0;
        for (int i = 0; i < len; i = i + 1) {
            s = s + buf[i];
        }
        return s;
    }
private:
    char* buf;
    int len;
};

int main() {
    int total = 0;
    for (int i = 0; i < 30; i = i + 1) {
        Msg* m = new Msg(20 + i % 8);
        total = total + m->sum();
        delete m;
    }
    print("total", total);
    return 0;
}
`
	plain := run(t, src, Config{})
	amp := run(t, amplified(t, src, core.Options{}), Config{})
	if plain.Output != amp.Output {
		t.Fatalf("outputs differ: %q vs %q", plain.Output, amp.Output)
	}
	if amp.ShadowReuses == 0 {
		t.Error("no shadow realloc reuse recorded")
	}
	if amp.Alloc.Allocs >= plain.Alloc.Allocs {
		t.Errorf("array shadowing did not reduce allocations: %d vs %d", amp.Alloc.Allocs, plain.Alloc.Allocs)
	}
}

func TestArraysOnlyModeEquivalent(t *testing.T) {
	src := treeProgram
	arr := run(t, amplified(t, src, core.Options{ArraysOnly: true}), Config{})
	plain := run(t, src, Config{})
	if arr.Output != plain.Output {
		t.Fatal("ArraysOnly changed program behavior")
	}
	// No object pooling: allocation count unchanged.
	if arr.Alloc.Allocs != plain.Alloc.Allocs {
		t.Errorf("ArraysOnly changed allocs: %d vs %d", arr.Alloc.Allocs, plain.Alloc.Allocs)
	}
}

func TestPlacementNewTypeCheck(t *testing.T) {
	src := `
class A { public: A() { } int x; };
class B { public: B() { } int y; };
int main() {
    A* a = new A();
    a->~A();
    B* b = new(a) B();
    return 0;
}
`
	_, err := RunSource(src, Config{})
	if err == nil || !strings.Contains(err.Error(), "placement new: shadow holds A, want B") {
		t.Fatalf("err = %v, want placement type check", err)
	}
}

// TestPlacementReorganization exercises §3.2's non-identical-structure
// path: a program that allocates through the same field in a loop finds
// the shadow already live on the second iteration and must fall back to
// a normal allocation — without changing program behavior.
func TestPlacementReorganization(t *testing.T) {
	src := `
class Item {
public:
    Item(int v, Item* n) {
        val = v;
        next = n;
    }
    ~Item() {
        delete next;
    }
    int sum() {
        int s = val;
        if (next) {
            s = s + next->sum();
        }
        return s;
    }
private:
    int val;
    Item* next;
};

class Bag {
public:
    Bag(int n) {
        head = null;
        for (int i = 0; i < n; i = i + 1) {
            head = new Item(i, head);
        }
    }
    ~Bag() {
        delete head;
    }
    int sum() {
        return head->sum();
    }
private:
    Item* head;
};

int main() {
    int total = 0;
    for (int r = 0; r < 10; r = r + 1) {
        Bag* b = new Bag(4);
        total = total + b->sum();
        delete b;
    }
    print("total", total);
    return 0;
}
`
	plain := run(t, src, Config{})
	amp := run(t, amplified(t, src, core.Options{}), Config{})
	if plain.Output != amp.Output {
		t.Fatalf("reorganization changed semantics: %q vs %q", plain.Output, amp.Output)
	}
	if amp.PlacementFallbacks == 0 {
		t.Error("expected placement fallbacks for loop-built list")
	}
	// Reuse still pays off: the head item and the Bag come from shadows
	// and pools, so the amplified run allocates strictly less.
	if amp.Alloc.Allocs >= plain.Alloc.Allocs {
		t.Errorf("amplified allocs %d >= plain %d", amp.Alloc.Allocs, plain.Alloc.Allocs)
	}
}

func TestPlacementNewNullFallsBack(t *testing.T) {
	src := `
class A {
public:
    A() {
        x = 7;
    }
    int x;
};
int main() {
    A* p = null;
    A* a = new(p) A();
    int v = a->x;
    delete a;
    return v;
}
`
	r := run(t, src, Config{})
	if r.ExitCode != 7 {
		t.Errorf("exit = %d, want 7", r.ExitCode)
	}
}

func TestDeterministicInterpretation(t *testing.T) {
	a := run(t, treeProgram, Config{Strategy: "ptmalloc"})
	b := run(t, treeProgram, Config{Strategy: "ptmalloc"})
	if a.Makespan != b.Makespan || a.Output != b.Output {
		t.Fatal("non-deterministic interpretation")
	}
}

func TestDifferentAllocatorsSameSemantics(t *testing.T) {
	var outputs []string
	for _, s := range []string{"serial", "ptmalloc", "hoard", "smartheap"} {
		r := run(t, treeProgram, Config{Strategy: s})
		outputs = append(outputs, r.Output)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("allocator changed semantics: %q vs %q", outputs[i], outputs[0])
		}
	}
}

func TestSingleThreadedPoolElision(t *testing.T) {
	single := strings.ReplaceAll(treeProgram, "spawn churn(40, 3);\n    spawn churn(40, 3);\n    join;", "churn(40, 3);")
	amp := run(t, amplified(t, single, core.Options{}), Config{})
	// Pool locks are elided; the only lock traffic left is the
	// underlying malloc serving the warmup misses.
	mallocLocks := amp.Alloc.Allocs + amp.Alloc.Frees
	if amp.Sim.LockAcquires != mallocLocks {
		t.Errorf("lock acquires = %d, want %d (malloc warmup only; pool locks elided)",
			amp.Sim.LockAcquires, mallocLocks)
	}
}

func TestLexicalShadowing(t *testing.T) {
	// Inner scopes shadow; the outer binding survives (must match the
	// VM's compile-time slot resolution).
	r := run(t, `
int main() {
    int x = 1;
    {
        int x = 2;
        print("inner", x);
    }
    print("outer", x);
    return x;
}
`, Config{})
	if r.Output != "inner 2\nouter 1\n" || r.ExitCode != 1 {
		t.Fatalf("output=%q exit=%d", r.Output, r.ExitCode)
	}
}
