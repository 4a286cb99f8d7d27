package alloctrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"amplify/internal/mem"
)

// sample builds a small hand-written trace exercising every feature:
// two threads, attributed and unknown sites, a cross-thread free, and
// a leak.
func sample() *Trace {
	return &Trace{
		Name:    "sample",
		Sites:   []string{"", "make_node@12(node)"},
		Threads: []string{"t0", "t1"},
		Events: []Event{
			{Op: OpAlloc, Thread: 0, Now: 100, Site: 1, Req: 24, Granted: 32},
			{Op: OpAlloc, Thread: 1, Now: 40, Site: 0, Req: 100, Granted: 112},
			{Op: OpFree, Thread: 1, Now: 90, AllocSeq: 0}, // cross-thread
			{Op: OpFree, Thread: 1, Now: 95, AllocSeq: 1},
			{Op: OpAlloc, Thread: 0, Now: 160, Site: 1, Req: 8, Granted: 16}, // leaked
		},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("sample trace invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"missing unknown site", func(tr *Trace) { tr.Sites = []string{"x"} }, "Sites[0]"},
		{"thread out of range", func(tr *Trace) { tr.Events[0].Thread = 7 }, "thread 7 out of range"},
		{"site out of range", func(tr *Trace) { tr.Events[0].Site = 9 }, "site 9 out of range"},
		{"zero request", func(tr *Trace) { tr.Events[0].Req = 0 }, "non-positive request"},
		{"granted below req", func(tr *Trace) { tr.Events[0].Granted = 8 }, "granted 8 < requested"},
		{"forward free ref", func(tr *Trace) { tr.Events[2].AllocSeq = 4 }, "not an earlier event"},
		{"free ref to free", func(tr *Trace) { tr.Events[3].AllocSeq = 2 }, "is not an alloc"},
		{"double free", func(tr *Trace) { tr.Events[3].AllocSeq = 0 }, "double free"},
		// Two 2^62-byte allocs once wrapped Stats().ReqBytes, HeapInfo.
		// ReqBytes and the footprint of every allocator to ≈ -9.2e18.
		{"two 2^62-byte allocs", func(tr *Trace) {
			for _, i := range []int{0, 4} {
				tr.Events[i].Req, tr.Events[i].Granted = 1<<62, 1<<62
			}
		}, "above the 1099511627776-byte cap"},
		// A MaxInt64 request once panicked inside mem.Sbrk on replay.
		{"MaxInt64 request", func(tr *Trace) {
			tr.Events[1].Req, tr.Events[1].Granted = math.MaxInt64, math.MaxInt64
		}, "event 1: request 9223372036854775807"},
		{"granted above cap", func(tr *Trace) { tr.Events[0].Granted = MaxRequest + 1 }, "above the 1099511627776-byte cap"},
		{"cumulative bytes above cap", func(tr *Trace) {
			for range MaxTraceBytes / MaxRequest {
				tr.Events = append(tr.Events, Event{Op: OpAlloc, Req: MaxRequest, Granted: MaxRequest})
			}
		}, "event 1028: cumulative trace bytes"},
	}
	for _, tc := range cases {
		tr := sample()
		tc.mut(tr)
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		var typed *Error
		if !errors.As(err, &typed) {
			t.Errorf("%s: %T is not an *alloctrace.Error", tc.name, err)
		}
	}
}

// TestValidateAcceptsCaps: a trace at exactly the per-request and
// cumulative caps is valid, and its Stats do not wrap.
func TestValidateAcceptsCaps(t *testing.T) {
	tr := &Trace{Name: "caps", Sites: []string{""}, Threads: []string{"t0"}}
	for range MaxTraceBytes / MaxRequest {
		tr.Events = append(tr.Events, Event{Op: OpAlloc, Req: MaxRequest, Granted: MaxRequest})
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace at the caps rejected: %v", err)
	}
	if s := tr.Stats(); s.ReqBytes != MaxTraceBytes || s.GrantedBytes != MaxTraceBytes || s.PeakLiveBytes != MaxTraceBytes {
		t.Fatalf("Stats at the caps = %+v, want %d bytes", s, int64(MaxTraceBytes))
	}
}

func TestStats(t *testing.T) {
	s := sample().Stats()
	want := Stats{
		Events: 5, Allocs: 3, Frees: 2, Leaked: 1,
		CrossThreadFrees: 1,
		ReqBytes:         132, GrantedBytes: 160,
		PeakLiveObjects: 2, PeakLiveBytes: 124,
	}
	if s != want {
		t.Fatalf("Stats() = %+v, want %+v", s, want)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample()
	enc := tr.Encode()
	if !bytes.HasPrefix(enc, []byte(Magic)) {
		t.Fatalf("encoded trace does not start with magic %q", Magic)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Name != tr.Name || len(got.Events) != len(tr.Events) {
		t.Fatalf("decoded header mismatch: %q/%d events", got.Name, len(got.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encoding the decoded trace is not byte-identical")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sample().Encode()
	if _, err := Decode(enc[:len(enc)/2]); err == nil {
		t.Error("truncated trace decoded without error")
	}
	if _, err := Decode(append(append([]byte{}, enc...), 0x7)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic decoded without error")
	}
}

// hugeCountHeader returns a trace whose header is well formed up to
// one table or event count that claims 2^62 entries, followed by pad
// bytes of plausible event payload.
func hugeCountHeader(which string, pad int) []byte {
	b := append([]byte(Magic), 0) // empty name
	count := func(n uint64) { b = binary.AppendUvarint(b, n) }
	switch which {
	case "sites":
		count(1 << 62)
	case "threads":
		count(1)
		b = append(b, 0)
		count(1 << 62)
	case "events":
		count(1)
		b = append(b, 0)
		count(1)
		b = appendString(b, "t0")
		count(1 << 62)
	}
	return append(b, make([]byte, pad)...)
}

// TestDecodeCapacityGuard: a short input whose header claims 2^62
// entries is rejected with a typed error, and Decode allocates no more
// than a small multiple of the input's length on the way.
func TestDecodeCapacityGuard(t *testing.T) {
	for _, which := range []string{"sites", "threads", "events"} {
		data := hugeCountHeader(which, 1024)
		_, err := Decode(data)
		var typed *Error
		if !errors.As(err, &typed) || !strings.Contains(err.Error(), which[:len(which)-1]+" count") {
			t.Fatalf("%s: Decode = %v, want an *Error naming the %s count", which, err, which)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range runs {
			Decode(data)
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(4 * len(data)); perCall > limit {
			t.Errorf("%s: Decode of a %d-byte hostile header allocated %d bytes per call, limit %d",
				which, len(data), perCall, limit)
		}
	}
}

// TestDecodeRejectsWideIndices: thread and site indices are int32 in
// memory; a wider varint must not truncate into a valid index.
func TestDecodeRejectsWideIndices(t *testing.T) {
	data := (&Trace{Name: "wide", Sites: []string{""}, Threads: []string{"t0"}}).Encode()
	data = data[:len(data)-1]             // drop the zero event count
	data = append(data, 1, byte(OpAlloc)) // one event: an alloc
	data = binary.AppendUvarint(data, 1<<32)
	data = append(data, 0, 0, 16, 16) // time delta, site, req, granted
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "thread index") {
		t.Fatalf("Decode of a 2^32 thread index = %v, want a thread index error", err)
	}
}

// TestRecorderThreadSlots: the recorder interns sparse, out-of-order
// simulated thread slots as t0, t1, t2 in first-event order.
func TestRecorderThreadSlots(t *testing.T) {
	r := NewRecorder("slots")
	for i, slot := range []int{7, 0, 1000, 7} {
		r.ObserveAlloc(int64(i), slot, 16, 16, mem.Ref(0x1000*(i+1)))
	}
	r.ObserveFree(9, 1000, 16, mem.Ref(0x1000))
	tr := r.Trace()
	if got := fmt.Sprint(tr.Threads); got != "[t0 t1 t2]" {
		t.Fatalf("Threads = %s, want [t0 t1 t2]", got)
	}
	var got []int32
	for _, ev := range tr.Events {
		got = append(got, ev.Thread)
	}
	if fmt.Sprint(got) != "[0 1 2 0 2]" {
		t.Fatalf("event threads = %v, want [0 1 2 0 2]", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
}

func TestJSONLMirror(t *testing.T) {
	tr := sample()
	lines := strings.Split(strings.TrimSuffix(string(tr.JSONL()), "\n"), "\n")
	if len(lines) != 1+len(tr.Events) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), 1+len(tr.Events))
	}
	var hdr struct {
		Format string   `json:"format"`
		Name   string   `json:"name"`
		Sites  []string `json:"sites"`
		Events int      `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Format != "AMPTRC1" || hdr.Name != "sample" || hdr.Events != 5 || len(hdr.Sites) != 2 {
		t.Fatalf("bad header: %+v", hdr)
	}
	for i, line := range lines[1:] {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d: %v", i, err)
		}
	}
}

func TestCorporaDeterministicAndValid(t *testing.T) {
	names := CorpusNames()
	if len(names) != 4 {
		t.Fatalf("CorpusNames() = %v, want 4 corpora", names)
	}
	for _, name := range names {
		tr, err := Corpus(name)
		if err != nil {
			t.Fatalf("Corpus(%q): %v", name, err)
		}
		if tr.Name != name {
			t.Errorf("%s: trace named %q", name, tr.Name)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		s := tr.Stats()
		if s.Allocs < 1000 {
			t.Errorf("%s: only %d allocs, corpus too small to exercise allocators", name, s.Allocs)
		}
		// Synthesis must be a pure function of its parameters: a fresh
		// (non-memoized) synthesis encodes byte-identically.
		if !bytes.Equal(corpusSynths[name]().Encode(), tr.Encode()) {
			t.Errorf("%s: re-synthesis is not byte-identical", name)
		}
	}
	if _, err := Corpus("nope"); err == nil {
		t.Error("unknown corpus name did not error")
	}
}

func TestCorpusShapes(t *testing.T) {
	handoff, err := Corpus("handoff")
	if err != nil {
		t.Fatal(err)
	}
	hs := handoff.Stats()
	if hs.Frees == 0 || float64(hs.CrossThreadFrees)/float64(hs.Frees) < 0.5 {
		t.Errorf("handoff: %d/%d cross-thread frees, want majority", hs.CrossThreadFrees, hs.Frees)
	}
	web, err := Corpus("websession")
	if err != nil {
		t.Fatal(err)
	}
	ws := web.Stats()
	if ws.CrossThreadFrees != 0 {
		t.Errorf("websession: %d cross-thread frees, want none", ws.CrossThreadFrees)
	}
	if ws.Leaked == 0 {
		t.Error("websession: expected a long-lived leaked residue")
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(sample())
	if a.Stats.Allocs != 3 || len(a.SizeHist) == 0 || len(a.Threads) != 2 {
		t.Fatalf("unexpected analysis: %+v", a)
	}
	// Buckets: 24->32, 100->128, 8->16; hottest site is the attributed one.
	if a.SizeHist[0].Max != 16 || a.SizeHist[1].Max != 32 || a.SizeHist[2].Max != 128 {
		t.Fatalf("size buckets: %+v", a.SizeHist)
	}
	if a.Sites[0].Site != "make_node@12(node)" || a.Sites[0].Allocs != 2 {
		t.Fatalf("top site: %+v", a.Sites)
	}
	out := a.String()
	for _, want := range []string{"trace sample: 5 events", "cross-thread frees: 1", "make_node@12(node)"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	j, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Analysis
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.LifetimeP50 != a.LifetimeP50 || back.Stats != a.Stats {
		t.Fatal("JSON round-trip lost fields")
	}
}

func TestBucketMax(t *testing.T) {
	cases := map[int64]int64{1: 16, 16: 16, 17: 32, 32: 32, 33: 64, 1000: 1024, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := bucketMax(n); got != want {
			t.Errorf("bucketMax(%d) = %d, want %d", n, got, want)
		}
	}
}
