package bench

import (
	"fmt"
	"sort"
	"strings"
)

// CompareHost diffs a fresh host-benchmark report against a committed
// baseline (BENCH_host.json). Unlike Compare, everything here is a
// host wall-clock measurement — noisy by construction — so the
// threshold is expected to be generous (tens of percent, not zero):
// the gate exists to catch order-of-magnitude host regressions, not
// single-digit drift. NsPerOp and AllocsPerOp are compared per
// benchmark name; lower is better for both. Benchmarks present in only
// one report are tolerated and counted, like cells in Compare.
func CompareHost(baseline, current *HostReport, thresholdPct float64) (*Comparison, error) {
	for _, r := range []*HostReport{baseline, current} {
		if !strings.HasPrefix(r.Schema, "amplify-hostbench/") {
			return nil, fmt.Errorf("bench: unknown host report schema %q", r.Schema)
		}
	}
	if thresholdPct < 0 {
		return nil, fmt.Errorf("bench: negative threshold %g", thresholdPct)
	}
	c := &Comparison{Threshold: thresholdPct}
	if baseline.Schema != current.Schema {
		c.Notes = append(c.Notes, fmt.Sprintf("schema skew: baseline %s, current %s",
			baseline.Schema, current.Schema))
	}
	if baseline.GoVersion != current.GoVersion {
		c.Notes = append(c.Notes, fmt.Sprintf("go version skew: baseline %s, current %s",
			baseline.GoVersion, current.GoVersion))
	}

	old := hostBenchByName(baseline)
	new := hostBenchByName(current)
	for _, name := range sortedHostNames(old, new) {
		ob, inOld := old[name]
		nb, inNew := new[name]
		switch {
		case !inNew:
			c.OnlyOld++
			continue
		case !inOld:
			c.OnlyNew++
			continue
		}
		c.Common++
		c.compareValue("ns_per_op", name, ob.NsPerOp, nb.NsPerOp, false)
		c.compareValue("allocs_per_op", name, ob.AllocsPerOp, nb.AllocsPerOp, false)
	}
	if c.Common == 0 {
		c.Regressions = append(c.Regressions,
			"no overlapping benchmarks: the baseline and the report measure disjoint suites")
	}
	return c, nil
}

func hostBenchByName(r *HostReport) map[string]HostBenchmark {
	m := make(map[string]HostBenchmark, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		m[b.Name] = b
	}
	return m
}

func sortedHostNames(a, b map[string]HostBenchmark) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var names []string
	for n := range a {
		seen[n] = true
		names = append(names, n)
	}
	for n := range b {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
