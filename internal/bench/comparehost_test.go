package bench

import (
	"strings"
	"testing"
)

func hostReport(ns map[string]int64) *HostReport {
	rep := &HostReport{Schema: HostBenchSchema, GoVersion: "go1.23", HostCPUs: 8}
	for _, name := range []string{"vm/method_calls", "vm/arith_loop", "sched/spawn_churn_50k"} {
		if v, ok := ns[name]; ok {
			rep.Benchmarks = append(rep.Benchmarks, HostBenchmark{Name: name, NsPerOp: v, AllocsPerOp: 100})
		}
	}
	return rep
}

// TestCompareHostThresholds: host timings are noisy, so the generous
// threshold forgives moderate drift, flags only real regressions, and
// records improvements.
func TestCompareHostThresholds(t *testing.T) {
	base := hostReport(map[string]int64{
		"vm/method_calls": 1_000_000, "vm/arith_loop": 500_000, "sched/spawn_churn_50k": 2_000_000})

	// 30% slower on one benchmark: inside a 50% gate, a note not a failure.
	drift := hostReport(map[string]int64{
		"vm/method_calls": 1_300_000, "vm/arith_loop": 500_000, "sched/spawn_churn_50k": 2_000_000})
	c, err := CompareHost(base, drift, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regressed() {
		t.Errorf("30%% drift failed a 50%% gate:\n%s", c.Format())
	}
	if c.Common != 3 {
		t.Errorf("compared %d benchmarks, want 3", c.Common)
	}

	// 2x slower: a real regression even under the generous gate.
	bad := hostReport(map[string]int64{
		"vm/method_calls": 1_000_000, "vm/arith_loop": 1_100_000, "sched/spawn_churn_50k": 2_000_000})
	c, err = CompareHost(base, bad, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Regressed() {
		t.Error("120% regression passed a 50% gate")
	}
	if !strings.Contains(strings.Join(c.Regressions, "\n"), "vm/arith_loop") {
		t.Errorf("regression not attributed:\n%v", c.Regressions)
	}

	// Faster is an improvement, never a failure.
	good := hostReport(map[string]int64{
		"vm/method_calls": 400_000, "vm/arith_loop": 500_000, "sched/spawn_churn_50k": 2_000_000})
	c, err = CompareHost(base, good, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regressed() || len(c.Improvements) == 0 {
		t.Errorf("speedup misclassified:\n%s", c.Format())
	}
}

// TestCompareHostCoverage: benchmarks present in only one report are
// counted, and disjoint suites fail rather than pass vacuously.
func TestCompareHostCoverage(t *testing.T) {
	base := hostReport(map[string]int64{"vm/method_calls": 1_000_000, "vm/arith_loop": 500_000})
	cur := hostReport(map[string]int64{"vm/method_calls": 1_000_000, "sched/spawn_churn_50k": 2_000_000})
	c, err := CompareHost(base, cur, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Common != 1 || c.OnlyOld != 1 || c.OnlyNew != 1 {
		t.Errorf("coverage = common %d, onlyOld %d, onlyNew %d", c.Common, c.OnlyOld, c.OnlyNew)
	}

	disjointBase := hostReport(map[string]int64{"vm/method_calls": 1})
	disjointCur := hostReport(map[string]int64{"sched/spawn_churn_50k": 1})
	c, err = CompareHost(disjointBase, disjointCur, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Regressed() {
		t.Error("disjoint suites compared vacuously clean")
	}

	if _, err := CompareHost(&HostReport{Schema: "amplify-bench/6"}, cur, 50); err == nil {
		t.Error("simulated-bench schema accepted as a host report")
	}
	if _, err := CompareHost(base, cur, -1); err == nil {
		t.Error("negative threshold accepted")
	}
}
