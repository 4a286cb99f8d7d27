package main

import (
	"fmt"
	"math"
	"sort"

	"amplify/internal/telemetry"
	"amplify/internal/workload"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles op_tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of xs that has at
// least ten samples beyond it, the sample count, how many samples lie
// beyond it, and its value (nearest rank).
func tailPercentile(xs []float64) (q float64, n, beyond int, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = len(s)
	for _, q := range tailLadder {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return q, n, n - rank, s[rank-1]
		}
	}
	return 100, n, 0, s[n-1]
}

// passCounts sums the deterministic counters of the first pass.
type passCounts struct {
	ops int
	sum counts
}

func (p *passCounts) add(res outcome) {
	p.ops++
	c, s := &p.sum, res.counts
	c.sim.LockAcquires += s.sim.LockAcquires
	c.sim.LockContended += s.sim.LockContended
	c.sim.LockWaitTime += s.sim.LockWaitTime
	c.sim.Migrations += s.sim.Migrations
	c.sim.CacheHits += s.sim.CacheHits
	c.sim.CacheMisses += s.sim.CacheMisses
	c.sim.CacheInvalidations += s.sim.CacheInvalidations
	c.sim.AtomicCAS += s.sim.AtomicCAS
	c.sim.AtomicCASFailed += s.sim.AtomicCASFailed
	c.poolHits += s.poolHits
	c.poolMisses += s.poolMisses
	c.shadowReuses += s.shadowReuses
	c.footprint += s.footprint
	c.traceEvents += s.traceEvents
	c.vetDiags += s.vetDiags
	c.vmFaults += s.vmFaults
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (p *passCounts) metrics() []metric {
	c := &p.sum
	note := fmt.Sprintf("first pass, %d ops", p.ops)
	return []metric{
		{"pool.hit_ratio", ratio(c.poolHits, c.poolHits+c.poolMisses), "ratio", note},
		{"pool.shadow_reuses", float64(c.shadowReuses), "count", note},
		{"sim.lock_contended_ratio", ratio(c.sim.LockContended, c.sim.LockAcquires), "ratio", note},
		{"sim.lock_wait_mcycles", float64(c.sim.LockWaitTime) / 1e6, "Mcycles", note},
		{"sim.migrations", float64(c.sim.Migrations), "count", note},
		{"sim.cache_miss_ratio", ratio(c.sim.CacheMisses, c.sim.CacheHits+c.sim.CacheMisses), "ratio", note},
		{"sim.cache_invalidations", float64(c.sim.CacheInvalidations), "count", note},
		{"sim.atomic_cas_fail_ratio", ratio(c.sim.AtomicCASFailed, c.sim.AtomicCAS), "ratio", note},
		{"alloc.footprint_kb", float64(c.footprint) / 1024 / float64(p.ops), "KB", "mean per op, " + note},
		{"alloctrace.events", float64(c.traceEvents), "count", note},
		{"vet.diags", float64(c.vetDiags), "count", note},
		{"vm.faults", float64(c.vmFaults), "count", note},
	}
}

// spanLayer maps the benchmark's span names to the per-layer timing
// they add to. A layer's time in an op is the sum of its spans there.
var spanLayer = map[string]string{
	"cc.parse":          "cc.parse_ms",
	"cc.analyze":        "cc.parse_ms",
	"vet.check":         "vet.check_ms",
	"vet.eligibility":   "vet.check_ms",
	"core.rewrite":      "core.rewrite_ms",
	"vm.compile":        "vm.compile_ms",
	"vm.run":            "vm.run_ms",
	"workload.churn":    "workload.churn_ms",
	"workload.replay":   "workload.replay_ms",
	"alloctrace.decode": "alloctrace.decode_ms",
	"alloctrace.encode": "alloctrace.encode_ms",
}

var spanMetricOrder = []string{
	"cc.parse_ms", "vet.check_ms", "core.rewrite_ms", "vm.compile_ms", "vm.run_ms",
	"workload.churn_ms", "workload.replay_ms", "alloctrace.decode_ms", "alloctrace.encode_ms",
}

// spanMetrics turns the traced phase's spans into per-layer medians
// over ops, plus each allocator's median op time, at nominal host
// speed (divided by slowdown). strategies holds the allocator of each
// op, in op order. A layer the workload never calls reports 0.
func spanMetrics(rec *telemetry.Recorder, strategies []string, slowdown float64) []metric {
	perLayer := map[string][]float64{}
	perStrategy := map[string][]float64{}
	var cur map[string]float64
	flush := func() {
		for k, v := range cur {
			perLayer[k] = append(perLayer[k], v)
		}
	}
	opIdx := -1
	for _, s := range rec.Spans() {
		ms := float64(s.DurNS) / 1e6 / slowdown
		switch {
		case s.Depth == 0:
			flush()
			cur = map[string]float64{}
			opIdx++
			perStrategy[strategies[opIdx]] = append(perStrategy[strategies[opIdx]], ms)
		case s.Depth == 1 && spanLayer[s.Name] != "":
			cur[spanLayer[s.Name]] += ms
		}
	}
	flush()
	var out []metric
	for _, name := range spanMetricOrder {
		xs := perLayer[name]
		out = append(out, metric{name, median(xs), "ms", fmt.Sprintf("median over %d traced ops", len(xs))})
	}
	for _, s := range workload.ReplayStrategies() {
		xs := perStrategy[s]
		out = append(out, metric{"alloc." + s + ".op_ms", median(xs), "ms", fmt.Sprintf("median over %d traced ops", len(xs))})
	}
	return out
}
