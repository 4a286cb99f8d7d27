package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.chanrecv", "amplify/internal/sim.(*Thread).yield"}, "runtime.handoff"},
		{[]string{"runtime.mallocgc", "amplify/internal/sim.(*Engine).Go"}, "sim.sched"},
		{[]string{"amplify/internal/sim.(*lineMap).find", "amplify/internal/sim.(*Cache).access"}, "sim.cache"},
		{[]string{"amplify/internal/sim.(*Mutex).TryLock", "amplify/internal/ptmalloc.(*Allocator).lockArena"}, "sim.other"},
		{[]string{"amplify/internal/ptmalloc.(*Allocator).Alloc"}, "alloc"},
		{[]string{"amplify/internal/heapcore.(*Heap).Alloc"}, "alloc"},
		{[]string{"runtime.mapassign", "amplify/internal/alloctrace.(*Recorder).ObserveAlloc"}, "obs"},
		{[]string{"amplify/internal/alloctrace.Decode"}, "alloctrace"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "amplify/internal/vm.(*machine).exec"}, "runtime.gc"},
		{[]string{"runtime.sysmon"}, "runtime.other"},
		{[]string{"sort.Strings", "main.sortedLines"}, "bench"},
		{[]string{"amplify/internal/telemetry.(*Recorder).Start"}, "bench"},
		{[]string{"strings.Index"}, "unattributed"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var spinSink int

// TestParseCPUProfile decodes a real profile of a busy loop and finds
// the loop on the sampled stacks.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		spinSink++
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.count <= 0 {
			t.Fatalf("sample count %d", s.count)
		}
		for _, f := range s.stack {
			found = found || strings.HasSuffix(f, "TestParseCPUProfile")
		}
	}
	if !found {
		t.Fatalf("no sample on TestParseCPUProfile among %d samples", len(samples))
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
