package workload

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"amplify/internal/alloctrace"
)

func TestReplayDrivesWholeTrace(t *testing.T) {
	tr, err := alloctrace.Corpus("handoff")
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	for _, strategy := range ReplayStrategies() {
		res, err := RunReplay(strategy, ReplayConfig{Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan %d", strategy, res.Makespan)
		}
		if res.Alloc.Allocs != st.Allocs || res.Alloc.Frees != st.Frees {
			t.Errorf("%s: replayed %d/%d ops, trace has %d/%d",
				strategy, res.Alloc.Allocs, res.Alloc.Frees, st.Allocs, st.Frees)
		}
		if res.Alloc.LiveBlocks != st.Leaked {
			t.Errorf("%s: %d live blocks after replay, trace leaks %d",
				strategy, res.Alloc.LiveBlocks, st.Leaked)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr, err := alloctrace.Corpus("smallmix")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunReplay("hoard", ReplayConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplay("hoard", ReplayConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Sim != b.Sim {
		t.Fatalf("replay not deterministic: makespans %d vs %d", a.Makespan, b.Makespan)
	}
}

// TestReplayRecaptureIdempotent is the format's fixed-point determinism
// proof: re-capturing a replay yields a trace whose own replay
// re-captures byte-identically. (The first re-capture differs from the
// source corpus only in timestamps — the replayed allocator schedules
// its own virtual time — so idempotence, not identity, is the
// invariant.)
func TestReplayRecaptureIdempotent(t *testing.T) {
	for _, name := range alloctrace.CorpusNames() {
		tr, err := alloctrace.Corpus(name)
		if err != nil {
			t.Fatal(err)
		}
		rec1 := alloctrace.NewRecorder("recapture")
		if _, err := RunReplay("ptmalloc", ReplayConfig{Trace: tr, HeapObserver: rec1}); err != nil {
			t.Fatal(err)
		}
		t1 := rec1.Trace()
		if err := t1.Validate(); err != nil {
			t.Fatalf("%s: re-captured trace invalid: %v", name, err)
		}
		if rec1.DroppedFrees != 0 {
			t.Fatalf("%s: re-capture dropped %d frees", name, rec1.DroppedFrees)
		}
		st, st1 := tr.Stats(), t1.Stats()
		if st1.Allocs != st.Allocs || st1.Frees != st.Frees || st1.CrossThreadFrees != st.CrossThreadFrees {
			t.Fatalf("%s: re-capture changed the stream shape: %+v vs %+v", name, st1, st)
		}
		if len(t1.Threads) != len(tr.Threads) {
			t.Fatalf("%s: re-capture has %d threads, trace %d", name, len(t1.Threads), len(tr.Threads))
		}

		rec2 := alloctrace.NewRecorder("recapture")
		if _, err := RunReplay("ptmalloc", ReplayConfig{Trace: t1, HeapObserver: rec2}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec2.Trace().Encode(), t1.Encode()) {
			t.Fatalf("%s: replay re-capture is not idempotent", name)
		}
	}
}

// TestReplayHostileTraces: traces that once wrapped every allocator's
// counters (two 2^62-byte allocs) or panicked inside mem.Sbrk (a
// MaxInt64 request) are typed errors from RunReplay under all six
// strategies, never a panic.
func TestReplayHostileTraces(t *testing.T) {
	hostile := map[string][]alloctrace.Event{
		"two 2^62-byte allocs": {
			{Op: alloctrace.OpAlloc, Req: 1 << 62, Granted: 1 << 62},
			{Op: alloctrace.OpAlloc, Req: 1 << 62, Granted: 1 << 62},
		},
		"MaxInt64 request": {
			{Op: alloctrace.OpAlloc, Req: math.MaxInt64, Granted: math.MaxInt64},
			{Op: alloctrace.OpFree, AllocSeq: 0},
		},
	}
	for name, events := range hostile {
		tr := &alloctrace.Trace{Name: "hostile", Sites: []string{""}, Threads: []string{"t0"}, Events: events}
		for _, strategy := range ReplayStrategies() {
			_, err := RunReplay(strategy, ReplayConfig{Trace: tr})
			var typed *alloctrace.Error
			if !errors.As(err, &typed) {
				t.Errorf("%s/%s: RunReplay = %v, want an *alloctrace.Error", name, strategy, err)
			}
		}
	}
}

// TestReplayAtTheCaps: the largest trace Validate admits — MaxRequest-
// sized allocs up to MaxTraceBytes, one freed cross-thread — replays
// through every allocator with counters that do not wrap.
func TestReplayAtTheCaps(t *testing.T) {
	tr := &alloctrace.Trace{Name: "caps", Sites: []string{""}, Threads: []string{"t0", "t1"}}
	for i := range alloctrace.MaxTraceBytes / alloctrace.MaxRequest {
		tr.Events = append(tr.Events, alloctrace.Event{
			Op: alloctrace.OpAlloc, Thread: int32(i % 2), Req: alloctrace.MaxRequest, Granted: alloctrace.MaxRequest,
		})
	}
	tr.Events = append(tr.Events, alloctrace.Event{Op: alloctrace.OpFree, Thread: 1, AllocSeq: 0})
	for _, strategy := range ReplayStrategies() {
		res, err := RunReplay(strategy, ReplayConfig{Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Alloc.ReqBytes != alloctrace.MaxTraceBytes || res.Heap.ReqBytes <= 0 || res.Footprint < res.Heap.ReqBytes {
			t.Errorf("%s: req %d, heap req %d, footprint %d: a counter wrapped",
				strategy, res.Alloc.ReqBytes, res.Heap.ReqBytes, res.Footprint)
		}
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := RunReplay("serial", ReplayConfig{}); err == nil {
		t.Error("nil trace did not error")
	}
	bad := &alloctrace.Trace{Name: "bad", Sites: []string{"x"}}
	if _, err := RunReplay("serial", ReplayConfig{Trace: bad}); err == nil {
		t.Error("invalid trace did not error")
	}
	tr, err := alloctrace.Corpus("fragstorm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunReplay("nope", ReplayConfig{Trace: tr}); err == nil {
		t.Error("unknown strategy did not error")
	}
}

// BenchmarkReplayRecapture is the replay layer alone: smallmix through
// hoard with a Recorder attached, then the re-capture encoded — the
// path perfbench's replay workload times end to end.
func BenchmarkReplayRecapture(b *testing.B) {
	tr, err := alloctrace.Corpus("smallmix")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := alloctrace.NewRecorder(tr.Name)
		if _, err := RunReplay("hoard", ReplayConfig{Trace: tr, HeapObserver: rec}); err != nil {
			b.Fatal(err)
		}
		if len(rec.Trace().Encode()) == 0 {
			b.Fatal("empty re-capture")
		}
	}
}
