package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"amplify/internal/alloctrace"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/interp"
	"amplify/internal/mccgen"
	"amplify/internal/sim"
	"amplify/internal/telemetry"
	"amplify/internal/vet"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// op is one closed-loop request: a call into the program's public
// functions whose result is checked against a reference computed in
// setup.
type op struct {
	key      string // the cell or input it runs, for failure reports
	strategy string // the simulated allocator under test
	run      func(rec *telemetry.Recorder) outcome
}

// outcome is what one op produced. err means the op failed (a fault
// or a result that differs from its reference); mismatch marks the
// second kind, a wrong answer rather than a reported error.
type outcome struct {
	err      error
	mismatch bool
	// simOps is the simulated allocator's allocs+frees.
	simOps int64
	counts counts
}

// counts are the op's deterministic simulated counters. A host-only
// speed-up leaves every one of them identical.
type counts struct {
	sim          sim.Stats
	poolHits     int64
	poolMisses   int64
	shadowReuses int64
	footprint    int64
	traceEvents  int64
	vetDiags     int64
	vmFaults     int64
}

// setupFunc generates one pass of ops from the seed and computes each
// op's reference output. It reads the committed baseline and traces
// relative to the working directory, the root of a checkout.
type setupFunc func(seed int64) ([]op, error)

var workloads = map[string]setupFunc{
	"contend": setupContend,
	"minicc":  setupMinicc,
	"replay":  setupReplay,
}

// baselineMakespans reads the committed simulated results every
// contend and replay op is checked against.
func baselineMakespans() (map[string]int64, error) {
	data, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		return nil, err
	}
	var rep struct {
		Makespans map[string]int64 `json:"makespans"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("BENCH_baseline.json: %w", err)
	}
	return rep.Makespans, nil
}

// contendCells are the oversubscribed (T > P) quick-grid cells the
// baseline pins, with how often each runs per pass. The P=1024,
// T=8192 cells are left out: one of them takes 4-31 s on a 2-vCPU
// host, longer than a whole run. The cheap P=8 cells run three
// times per pass so that the median op falls inside one cell's
// cluster of times instead of on the edge between two cells, where
// it would jump between them from run to run.
var contendCells = []struct{ procs, threads, repeat int }{
	{8, 64, 3},
	{64, 512, 1},
}

// contendOpsPerThread and contendSize match the quick grid
// (internal/bench contendOpsQuick, contendSize), so every makespan
// is a committed baseline cell.
const (
	contendOpsPerThread = 30
	contendSize         = 48
)

func setupContend(seed int64) ([]op, error) {
	want, err := baselineMakespans()
	if err != nil {
		return nil, err
	}
	var ops []op
	for _, cell := range contendCells {
		for _, strategy := range workload.ChurnStrategies() {
			key := fmt.Sprintf("contend/%s/p%d/threads%d", strategy, cell.procs, cell.threads)
			ms, ok := want[key]
			if !ok {
				return nil, fmt.Errorf("baseline has no cell %s", key)
			}
			o := op{key: key, strategy: strategy, run: contendOp(strategy, cell.procs, cell.threads, ms)}
			for i := 0; i < cell.repeat; i++ {
				ops = append(ops, o)
			}
		}
	}
	shuffle(ops, seed)
	return ops, nil
}

func contendOp(strategy string, procs, threads int, want int64) func(*telemetry.Recorder) outcome {
	return func(rec *telemetry.Recorder) outcome {
		sp := rec.Start("workload.churn")
		res, err := workload.RunChurn(strategy, workload.ChurnConfig{
			Threads:      threads,
			OpsPerThread: contendOpsPerThread,
			Size:         contendSize,
			Processors:   procs,
		})
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		out := outcome{
			simOps: res.Alloc.Allocs + res.Alloc.Frees,
			counts: counts{sim: res.Sim, footprint: res.Footprint},
		}
		if res.Makespan != want {
			out.err = fmt.Errorf("makespan %d, baseline %d", res.Makespan, want)
			out.mismatch = true
		}
		return out
	}
}

// miniccPerCombo is how many programs each (threads, allocator,
// escape) combination gets per pass: 4 x 6 x 2 x 60 = 2880 programs.
// Every combination is equally represented, so the allocator is
// independent of the thread count. Program cost is heavy-tailed (a
// few large class graphs run 50x longer than the median program), so
// the pass must be this large for its mean and its tail, and with
// them ops_per_s and op_tail_ms, to vary little from seed to seed.
const miniccPerCombo = 60

// setupWorkers bounds the goroutines computing reference outputs: the
// benchmark uses at most two host threads of its own.
const setupWorkers = 2

// miniccIterations spreads one combination's iteration counts evenly
// over 10-50, so every pass has the same mix of short and long
// programs; the program each count goes to is drawn.
func miniccIterations() []int {
	its := make([]int, miniccPerCombo)
	for i := range its {
		its[i] = 10 + i*41/miniccPerCombo
	}
	return its
}

// miniccInput is one generated program and its reference output.
type miniccInput struct {
	cfg      mccgen.Config
	strategy string
	escape   bool
	src      string
	want     string
}

func setupMinicc(seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	var ins []*miniccInput
	for threads := 1; threads <= 4; threads++ {
		for _, strategy := range workload.ReplayStrategies() {
			for _, escape := range []bool{false, true} {
				for _, iters := range miniccIterations() {
					cfg := mccgen.Config{Seed: rng.Int63(), Iterations: iters, Threads: threads}
					ins = append(ins, &miniccInput{cfg: cfg, strategy: strategy, escape: escape, src: mccgen.Generate(cfg)})
				}
			}
		}
	}
	if err := referenceOutputs(ins); err != nil {
		return nil, err
	}
	ops := make([]op, len(ins))
	for i, in := range ins {
		key := fmt.Sprintf("minicc/seed%d/threads%d/iters%d/%s/escape=%v",
			in.cfg.Seed, in.cfg.Threads, in.cfg.Iterations, in.strategy, in.escape)
		ops[i] = op{key: key, strategy: in.strategy, run: miniccOp(in.src, in.strategy, in.escape, in.want)}
	}
	shuffle(ops, seed)
	return ops, nil
}

// referenceOutputs runs the interpreter on every original program and
// keeps its sorted output lines.
func referenceOutputs(ins []*miniccInput) error {
	workers := min(setupWorkers, runtime.GOMAXPROCS(0))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ins); i += workers {
				ref, err := interp.RunSource(ins[i].src, interp.Config{})
				if err != nil {
					errs[w] = fmt.Errorf("reference run of mccgen seed %d: %w", ins[i].cfg.Seed, err)
					return
				}
				ins[i].want = sortedLines(ref.Output)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// miniccOp pushes one program through the pre-processor pipeline a
// user runs: parse and analyze, lint and eligibility, the Amplify
// rewrite, re-parse, compile and run on the simulated machine.
func miniccOp(src, strategy string, escape bool, want string) func(*telemetry.Recorder) outcome {
	return func(rec *telemetry.Recorder) outcome {
		var out outcome
		sp := rec.Start("cc.parse")
		prog, err := cc.Parse(src)
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		sp = rec.Start("cc.analyze")
		err = cc.Analyze(prog)
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		sp = rec.Start("vet.check")
		diags := vet.Check(prog)
		sp.End()
		out.counts.vetDiags = int64(len(diags.Diags))
		sp = rec.Start("vet.eligibility")
		excl := vet.Eligibility(prog)
		sp.End()
		opt := core.Options{Escape: escape, AutoExclude: map[string]string{}}
		for _, e := range excl {
			opt.AutoExclude[e.Class] = e.Reason
		}
		sp = rec.Start("core.rewrite")
		rewritten, _, err := core.Rewrite(src, opt)
		sp.End()
		if err != nil {
			out.err = err
			return out
		}
		sp = rec.Start("cc.parse")
		prog, err = cc.Parse(rewritten)
		sp.End()
		if err != nil {
			out.err = err
			return out
		}
		sp = rec.Start("cc.analyze")
		err = cc.Analyze(prog)
		sp.End()
		if err != nil {
			out.err = err
			return out
		}
		sp = rec.Start("vm.compile")
		compiled, err := vm.Compile(prog)
		sp.End()
		if err != nil {
			out.err = err
			return out
		}
		sp = rec.Start("vm.run")
		res, err := vm.Run(compiled, vm.Config{Strategy: strategy})
		sp.End()
		if err != nil {
			out.err = err
			out.counts.vmFaults = 1
			return out
		}
		out.simOps = res.Alloc.Allocs + res.Alloc.Frees
		out.counts.sim = res.Sim
		out.counts.poolHits = res.PoolHits
		out.counts.poolMisses = res.PoolMisses
		out.counts.shadowReuses = res.ShadowReuses
		out.counts.footprint = res.Footprint
		if got := sortedLines(res.Output); got != want {
			out.err = fmt.Errorf("output differs from the interpreter's on the original program")
			out.mismatch = true
		}
		return out
	}
}

// sortedLines orders output lines, since threads print in a
// schedule-dependent order.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// replayProcs matches the replay cells of the baseline.
const replayProcs = 8

func setupReplay(seed int64) ([]op, error) {
	want, err := baselineMakespans()
	if err != nil {
		return nil, err
	}
	var ops []op
	for _, corpus := range alloctrace.CorpusNames() {
		data, err := os.ReadFile(filepath.Join("testdata", "traces", corpus+".trace"))
		if err != nil {
			return nil, err
		}
		tr, err := alloctrace.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s.trace: %w", corpus, err)
		}
		st := tr.Stats()
		for _, strategy := range workload.ReplayStrategies() {
			key := fmt.Sprintf("replay/%s/%s", corpus, strategy)
			ms, ok := want[key]
			if !ok {
				return nil, fmt.Errorf("baseline has no cell %s", key)
			}
			ops = append(ops, op{key: key, strategy: strategy, run: replayOp(data, strategy, ms, st)})
		}
	}
	shuffle(ops, seed)
	return ops, nil
}

// replayOp decodes a committed trace, replays it with a trace
// recorder and a heap timeline attached, and re-encodes the capture.
func replayOp(data []byte, strategy string, want int64, in alloctrace.Stats) func(*telemetry.Recorder) outcome {
	return func(rec *telemetry.Recorder) outcome {
		sp := rec.Start("alloctrace.decode")
		tr, err := alloctrace.Decode(data)
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		capture := alloctrace.NewRecorder(tr.Name)
		timeline := &heapobsv.Timeline{}
		sp = rec.Start("workload.replay")
		res, err := workload.RunReplay(strategy, workload.ReplayConfig{
			Trace:        tr,
			Processors:   replayProcs,
			HeapObserver: heapobsv.Multi{capture, timeline},
		})
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		timeline.Finish(res.Makespan)
		sp = rec.Start("alloctrace.encode")
		encoded := capture.Trace().Encode()
		sp.End()
		out := outcome{
			simOps: res.Alloc.Allocs + res.Alloc.Frees,
			counts: counts{sim: res.Sim, footprint: res.Footprint, traceEvents: res.Stats.Events},
		}
		got := capture.Trace().Stats()
		switch {
		case res.Makespan != want:
			out.err = fmt.Errorf("makespan %d, baseline %d", res.Makespan, want)
		case got.Allocs != in.Allocs || got.Frees != in.Frees:
			out.err = fmt.Errorf("recaptured %d allocs/%d frees, input has %d/%d",
				got.Allocs, got.Frees, in.Allocs, in.Frees)
		case len(encoded) == 0:
			out.err = fmt.Errorf("recaptured trace encoded to nothing")
		}
		out.mismatch = out.err != nil
		return out
	}
}

func shuffle(ops []op, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}
