// Command perfbench measures how fast the repository reproduces its
// simulations on the host. One client drives one workload in a closed
// loop from a single process: each op is a call into the program's
// public functions, timed from outside and checked against a
// reference computed in setup. See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//	perfbench --workload contend|minicc|replay --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs untraced for half the time and traced for the other half, and
// reports the per-layer ledger. The last line of standard output is
// one JSON object with the result.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"amplify/internal/telemetry"
)

// A timed run sets up at least setupRepeats times and for at least
// setupMinTime, and reports the median: a set-up of a millisecond
// repeats a few hundred times, so one slow repetition cannot move it.
const (
	setupRepeats = 3
	setupMinTime = time.Second
)

func main() {
	wl := flag.String("workload", "", "workload: contend, minicc or replay")
	seed := flag.Int64("seed", 1, "seed for input generation")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end measurement")
	out := flag.String("out", "", "directory for the traced run's spans and CPU profile (none when empty)")
	flag.Parse()
	setup, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var err error
	if *trace == 0 {
		err = runEndToEnd(setup, *seed, budget)
	} else {
		err = runLedger(setup, *wl, *out, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func runEndToEnd(setup setupFunc, seed int64, budget time.Duration) error {
	var ops []op
	var setups []float64
	for start := time.Now(); len(setups) < setupRepeats || time.Since(start) < setupMinTime; {
		t0 := time.Now()
		var err error
		if ops, err = setup(seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	warmUp(ops)
	ph := runPhase(ops, budget, nil)
	q, n, beyond, tail := tailPercentile(ph.durs)
	sd := ph.slowdown()
	raw := func(v float64, unit string) string { return fmt.Sprintf("%.6g %s as measured", v, unit) }
	setupS, p50 := median(setups), median(ph.durs)
	cpuPerOp := ph.cpu.Seconds() * 1e3 / float64(ph.ops)
	simAllocs := float64(ph.simOps) / ph.wall.Seconds()
	ms := []metric{
		{"setup_s", setupS / sd, "s", fmt.Sprintf("median of %d set-ups; %s", len(setups), raw(setupS, "s"))},
		{"ops_per_s", ph.opsPerSec(), "1/s", fmt.Sprintf("%d ops in %.2f s, %d passes of %d; %s",
			ph.ops, ph.wall.Seconds(), ph.passes, len(ops), raw(float64(ph.ops)/ph.wall.Seconds(), "1/s"))},
		{"op_p50_ms", p50 / sd, "ms", fmt.Sprintf("n=%d; %s", n, raw(p50, "ms"))},
		{"op_tail_ms", tail / sd, "ms", fmt.Sprintf("p%g, n=%d, %d beyond; %s", q, n, beyond, raw(tail, "ms"))},
		{"cpu_ms_per_op", cpuPerOp / sd, "ms", "user+sys, getrusage; " + raw(cpuPerOp, "ms")},
		{"sim_allocs_per_s", simAllocs * sd, "1/s", fmt.Sprintf("%d simulated allocs+frees; %s", ph.simOps, raw(simAllocs, "1/s"))},
	}
	// Printed but not in the result; README.md says why.
	extra := []metric{
		{"host_mem_mb", float64(ph.memHWM) / (1 << 20), "MB", "high-water mark of Go total mapped memory"},
		{"fail_ratio", float64(ph.failed) / float64(ph.ops), "ratio", fmt.Sprintf("%d of %d ops", ph.failed, ph.ops)},
		{"host_slowdown", sd, "x", fmt.Sprintf("median of %d calibration kernel runs over %v; host-time metrics above are divided by it", len(ph.kernel), calibNominal)},
	}
	return report(ph, ms, extra)
}

func runLedger(setup setupFunc, wl, outDir string, seed int64, budget time.Duration) error {
	ops, err := setup(seed)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	warmUp(ops)
	plain := runPhase(ops, budget/2, nil)

	rec := telemetry.NewRecorder()
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced := runPhase(ops, budget/2, rec)
	pprof.StopCPUProfile()

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl, seed))
		if err := os.WriteFile(base+".spans.jsonl", rec.JSONL(), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return err
		}
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}

	var ms []metric
	ms = append(ms, spanMetrics(rec, traced.strategies, traced.slowdown())...)
	ms = append(ms, shareMetrics(samples)...)
	ms = append(ms, plain.first.metrics()...)
	ms = append(ms,
		metric{"runtime.alloc_mb_per_op", float64(plain.allocBytes) / (1 << 20) / float64(plain.ops), "MB", "runtime/metrics around each untraced op"},
		metric{"runtime.gc_cycles_per_op", float64(plain.gcCycles) / float64(plain.ops), "count", ""},
		metric{"trace.overhead_ratio", traced.opsPerSec() / plain.opsPerSec(), "ratio",
			fmt.Sprintf("traced %.4g ops/s over untraced %.4g ops/s, both at nominal host speed", traced.opsPerSec(), plain.opsPerSec())},
	)
	both := &phase{ops: plain.ops + traced.ops, failed: plain.failed + traced.failed,
		mismatched: plain.mismatched + traced.mismatched, failures: plain.failures}
	for k, v := range traced.failures {
		both.failures[k] += v
	}
	return report(both, ms, nil)
}

// warmUp runs the first op once, untimed, so lazy initialization in
// the program and the runtime is not charged to the first timed op.
func warmUp(ops []op) {
	runOp(ops[0], nil)
	runtime.GC()
}

// phase accumulates one closed-loop measurement.
type phase struct {
	ops, failed, mismatched, passes int
	durs                            []float64 // ms per op
	strategies                      []string  // allocator of each op, parallel to durs
	wall, cpu                       time.Duration
	simOps                          int64
	memHWM                          uint64
	allocBytes, gcCycles            uint64
	first                           passCounts
	failures                        map[string]int
	kernel                          []float64 // calibration kernel times, ms
}

// slowdown is how much slower than nominal the host ran during the
// phase: the median kernel time over calibNominal.
func (ph *phase) slowdown() float64 {
	return median(ph.kernel) / (float64(calibNominal.Nanoseconds()) / 1e6)
}

// opsPerSec is the phase's throughput at nominal host speed.
func (ph *phase) opsPerSec() float64 { return float64(ph.ops) / ph.wall.Seconds() * ph.slowdown() }

// runPhase runs whole passes over ops until budget has elapsed, or
// until one more pass, as long as the last, would overrun the budget
// by more than a quarter; it always runs at least one. Whole passes
// keep the mix of ops the same in every run, so medians do not depend
// on where the time ran out. The first pass's counters are kept: they
// are deterministic for a seed. The calibration kernel runs at the
// start and after every calibEvery of op time; its time is left out
// of the phase's wall and CPU time.
func runPhase(ops []op, budget time.Duration, rec *telemetry.Recorder) *phase {
	ph := &phase{failures: map[string]int{}}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	runKernel() // warm-up
	var kernelWall, kernelCPU, sinceKernel time.Duration
	calibrate := func() {
		c0 := cpuTime()
		d := runKernel()
		kernelCPU += cpuTime() - c0
		kernelWall += d
		ph.kernel = append(ph.kernel, float64(d.Nanoseconds())/1e6)
		sinceKernel = 0
	}
	cpu0 := cpuTime()
	start := time.Now()
	calibrate()
	for {
		passStart := time.Now()
		for _, o := range ops {
			if sinceKernel >= calibEvery {
				calibrate()
			}
			metrics.Read(samples)
			alloc0, gc0 := samples[1].Value.Uint64(), samples[2].Value.Uint64()
			t0 := time.Now()
			sp := rec.Start("op")
			res := runOp(o, rec)
			sp.End()
			d := time.Since(t0)
			sinceKernel += d
			metrics.Read(samples)
			ph.memHWM = max(ph.memHWM, samples[0].Value.Uint64())
			ph.allocBytes += samples[1].Value.Uint64() - alloc0
			ph.gcCycles += samples[2].Value.Uint64() - gc0

			ph.ops++
			ph.durs = append(ph.durs, float64(d.Nanoseconds())/1e6)
			ph.strategies = append(ph.strategies, o.strategy)
			ph.simOps += res.simOps
			if res.err != nil {
				ph.failed++
				ph.failures[failureClass(res.err)]++
				if res.mismatch {
					ph.mismatched++
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.key, res.err)
				}
			}
			if ph.passes == 0 {
				ph.first.add(res)
			}
		}
		ph.passes++
		ph.wall = time.Since(start) - kernelWall
		if ph.wall >= budget || ph.wall+time.Since(passStart) > budget*5/4 {
			break
		}
	}
	ph.cpu = cpuTime() - cpu0 - kernelCPU
	return ph
}

// runOp runs one op, turning a panic escaping the program into a
// failed op.
func runOp(o op, rec *telemetry.Recorder) (res outcome) {
	defer func() {
		if r := recover(); r != nil {
			res = outcome{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return o.run(rec)
}

// failureClass groups failure messages for the summary, dropping the
// numbers that differ between otherwise identical failures.
func failureClass(err error) string {
	msg := err.Error()
	if i := strings.Index(msg, " (at "); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report prints every metric by name and unit, a failure summary, and
// the result object as the last line.
func report(ph *phase, ms, extra []metric) error {
	if len(ph.failures) > 0 {
		fmt.Printf("failures (%d of %d ops):\n", ph.failed, ph.ops)
		keys := make([]string, 0, len(ph.failures))
		for k := range ph.failures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %6d  %s\n", ph.failures[k], k)
		}
	}
	result := map[string]any{}
	for _, m := range append(ms, extra...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Printf("%-30s %16.6f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range ms {
		result[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   ph.mismatched == 0,
		"attempted": ph.ops,
		"failed":    ph.failed,
		"metrics":   result,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
