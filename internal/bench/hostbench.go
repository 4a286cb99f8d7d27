package bench

import (
	"fmt"
	"runtime"
	"time"

	"amplify/internal/cc"
	"amplify/internal/sim"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// Host benchmarks: wall-clock measurements of the simulator itself,
// as opposed to the simulated makespans everything else in this
// package reports. These back the BENCH_host.json trajectory file: a
// committed snapshot of how fast the host-side machinery (VM,
// scheduler) runs, so host regressions show up in review even though
// they can never change simulated results.
//
// Methodology: every benchmark keeps the minimum of repeated runs in
// one process. On a noisy host the minimum is the most stable
// available estimator — means drift with background load.

// HostBenchSchema identifies the BENCH_host.json layout.
const HostBenchSchema = "amplify-hostbench/1"

// HostBenchmark is one measurement: the best observed wall time of a
// named workload.
type HostBenchmark struct {
	Name string `json:"name"`
	// NsPerOp is the minimum observed nanoseconds per operation.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation, measured
	// separately from the timing loop (ReadMemStats is not free).
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// HostReport is the machine-readable host-benchmark snapshot.
type HostReport struct {
	Schema     string          `json:"schema"`
	GoVersion  string          `json:"go_version"`
	HostCPUs   int             `json:"host_cpus"`
	Benchmarks []HostBenchmark `json:"benchmarks"`
}

// vmHostSources are the MiniCC programs the VM benchmarks time.
// treeChurn is allocator/cache bound (the paper's test case 2 shape);
// arithLoop is dispatch bound; methodCalls stresses the call machinery
// and inline caches.
var vmHostSources = []struct {
	name string
	src  string
}{
	{"exec_tree_build", `
class Node {
public:
    Node(int depth, int seed) {
        d1 = seed; d2 = seed * 2; d3 = seed + 7;
        if (depth > 0) {
            left = new Node(depth - 1, seed + 1);
            right = new Node(depth - 1, seed + 2);
        }
    }
    ~Node() { delete left; delete right; }
    int sum() {
        int s = d1 + d2 + d3;
        if (left) { s = s + left->sum(); }
        if (right) { s = s + right->sum(); }
        return s;
    }
private:
    Node* left; Node* right; int d1; int d2; int d3;
};
int main() {
    int total = 0;
    for (int t = 0; t < 40; t = t + 1) {
        Node* root = new Node(4, t);
        total = total + root->sum();
        delete root;
    }
    return total % 256;
}`},
	{"arith_loop", `
int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + i * 3 - (acc % 7);
        if (acc > 100000) { acc = acc - 100000; }
    }
    return acc;
}
int main() { return spin(60000) % 256; }`},
	{"method_calls", `
class Counter {
public:
    Counter() { n = 0; }
    int bump(int k) { n = n + k; return n; }
    int n;
};
int main() {
    Counter* c = new Counter();
    int s = 0;
    for (int i = 0; i < 30000; i = i + 1) { s = s + c->bump(1) % 9; }
    delete c;
    return s % 256;
}`},
}

// minDuration runs fn rounds times and returns its minimum duration.
func minDuration(rounds int, fn func() error) (time.Duration, error) {
	best := time.Duration(1 << 62)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// allocsPerOp measures the mean heap allocations of fn over k runs.
func allocsPerOp(k int, fn func() error) (int64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(k), nil
}

// HostBench runs the host-side benchmark suite and assembles the
// report. It takes tens of seconds; nothing here touches the memo or
// the simulated-result trajectory.
func HostBench() (*HostReport, error) {
	rep := &HostReport{
		Schema:    HostBenchSchema,
		GoVersion: runtime.Version(),
		HostCPUs:  runtime.NumCPU(),
	}

	for _, s := range vmHostSources {
		prog, err := cc.Parse(s.src)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", s.name, err)
		}
		p, err := vm.Compile(prog)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", s.name, err)
		}
		run := func() error {
			_, err := vm.Run(p, vm.Config{})
			return err
		}
		if err := run(); err != nil { // warm-up
			return nil, err
		}
		best, err := minDuration(40, run)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", s.name, err)
		}
		allocs, err := allocsPerOp(10, run)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, HostBenchmark{Name: "vm/" + s.name, NsPerOp: best.Nanoseconds(), AllocsPerOp: allocs})
	}

	// Scheduler benchmarks: spawn churn (thread creation/retirement
	// through the pooled coroutines) and an oversubscribed run
	// (coroutine switches and migration under a long ready queue).
	schedBenches := []struct {
		name string
		run  func() error
	}{
		{"sched/spawn_churn_50k", func() error {
			e := sim.New(sim.Config{Processors: 8})
			e.Go("root", func(c *sim.Ctx) {
				for i := 0; i < 50_000; i++ {
					c.Go("w", func(c *sim.Ctx) { c.Work(20) })
				}
			})
			e.Run()
			return nil
		}},
		{"sched/oversubscribed_1k_threads", func() error {
			e := sim.New(sim.Config{Processors: 8})
			for i := 0; i < 1000; i++ {
				e.Go("w", func(c *sim.Ctx) {
					for j := 0; j < 50; j++ {
						c.Work(200)
					}
				})
			}
			e.Run()
			return nil
		}},
		{"sched/tree_churn_p64", func() error {
			_, err := workload.RunTree("amplify", workload.TreeConfig{
				Depth: 1, Trees: 20_000, Threads: 20_000,
				Processors: 64, InitWork: InitWork, UseWork: UseWork,
			})
			return err
		}},
	}
	for _, sb := range schedBenches {
		if err := sb.run(); err != nil { // warm-up
			return nil, fmt.Errorf("hostbench %s: %w", sb.name, err)
		}
		best, err := minDuration(5, sb.run)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", sb.name, err)
		}
		allocs, err := allocsPerOp(3, sb.run)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, HostBenchmark{Name: sb.name, NsPerOp: best.Nanoseconds(), AllocsPerOp: allocs})
	}
	return rep, nil
}
