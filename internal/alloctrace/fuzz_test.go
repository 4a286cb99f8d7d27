package alloctrace_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"amplify/internal/alloctrace"
	_ "amplify/internal/serial"
	"amplify/internal/workload"
)

// checkDecode is FuzzDecode's oracle. Decode must never panic and must
// report every rejection as an *alloctrace.Error. An accepted trace
// must survive Decode(Encode(tr)) deep-equal (not byte-equal: a
// non-minimal varint decodes legally but re-encodes minimally), have
// non-wrapping Stats, and go through Analyze and RunReplay without a
// panic.
// It returns Decode's verdict.
func checkDecode(t *testing.T, data []byte) (*alloctrace.Trace, error) {
	t.Helper()
	tr, err := alloctrace.Decode(data)
	if err != nil {
		var typed *alloctrace.Error
		if !errors.As(err, &typed) {
			t.Fatalf("Decode error %T is not an *alloctrace.Error: %v", err, err)
		}
		return nil, err
	}
	again, err := alloctrace.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v", err)
	}
	if !reflect.DeepEqual(again, tr) {
		t.Fatalf("Decode(Encode(tr)) differs from tr:\n%+v\n%+v", again, tr)
	}
	s := tr.Stats()
	if s.ReqBytes < 0 || s.GrantedBytes < s.ReqBytes || s.PeakLiveBytes < 0 {
		t.Fatalf("Stats wrapped: %+v", s)
	}
	if a := alloctrace.Analyze(tr); a.Stats != s {
		t.Fatalf("Analyze stats %+v differ from Stats %+v", a.Stats, s)
	}
	res, err := workload.RunReplay("serial", workload.ReplayConfig{Trace: tr})
	if err != nil {
		t.Fatalf("accepted trace does not replay: %v", err)
	}
	if res.Footprint < 0 || res.Heap.ReqBytes < 0 {
		t.Fatalf("replay counters wrapped: footprint %d, heap req %d", res.Footprint, res.Heap.ReqBytes)
	}
	return tr, nil
}

func FuzzDecode(f *testing.F) {
	sample := &alloctrace.Trace{
		Name:    "seed",
		Sites:   []string{"", "f@1(T)"},
		Threads: []string{"t0", "t1"},
		Events: []alloctrace.Event{
			{Op: alloctrace.OpAlloc, Thread: 0, Now: 5, Site: 1, Req: 24, Granted: 32},
			{Op: alloctrace.OpAlloc, Thread: 1, Now: 3, Req: 100, Granted: 112},
			{Op: alloctrace.OpFree, Thread: 1, Now: 9, AllocSeq: 0},
		},
	}
	f.Add(sample.Encode())
	f.Add([]byte(alloctrace.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// TestFuzzCorpusSeeds pins the committed corpus under
// testdata/fuzz/FuzzDecode: every hostile-* reproducer must still be
// rejected with a typed error, and every corpus-* trace must still be
// accepted — both under the full fuzz oracle.
func TestFuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	hostile, corpus := 0, 0
	for _, e := range entries {
		name := e.Name()
		data := readSeed(t, filepath.Join(dir, name))
		tr, err := checkDecode(t, data)
		switch {
		case strings.HasPrefix(name, "hostile-"):
			if err == nil {
				t.Errorf("%s: hostile reproducer decoded without error", name)
			}
			hostile++
		case strings.HasPrefix(name, "corpus-"):
			if err != nil {
				t.Errorf("%s: corpus trace rejected: %v", name, err)
			} else if tr.Stats().CrossThreadFrees == 0 {
				t.Errorf("%s: corpus seed has no cross-thread free to gate", name)
			}
			corpus++
		default:
			t.Errorf("%s: seed name must start with hostile- or corpus-", name)
		}
	}
	if hostile < 2 || corpus < 1 {
		t.Fatalf("committed seeds: %d hostile, %d corpus; want at least 2 and 1", hostile, corpus)
	}
}

// readSeed parses one `go test fuzz v1` file holding a single []byte.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a go fuzz v1 corpus file", path)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("%s: bad corpus encoding: %v", path, err)
	}
	return []byte(s)
}

// TestDecodeMutations is the deterministic stand-in for fuzzing in
// tier-1: every truncation and a set of single-byte corruptions of the
// committed corpus seed go through the fuzz oracle.
func TestDecodeMutations(t *testing.T) {
	seed := readSeed(t, filepath.Join("testdata", "fuzz", "FuzzDecode", "corpus-handoff-prefix"))
	accepted := 0
	for n := range len(seed) {
		checkDecode(t, seed[:n])
	}
	buf := make([]byte, len(seed))
	for i := range seed {
		for _, x := range []byte{0x01, 0x40, 0x80, 0xff} {
			copy(buf, seed)
			buf[i] ^= x
			if _, err := checkDecode(t, buf); err == nil {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Error("no corruption was accepted; the replay half of the oracle never ran")
	}
}
