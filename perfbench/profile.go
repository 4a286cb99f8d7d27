package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one stack of a CPU profile, leaf first, with inlined
// frames expanded, and how many times it was sampled.
type cpuSample struct {
	stack []string
	count int64
}

var errProto = errors.New("malformed profile")

// walkProto calls fn for every field of one protobuf message: varint
// and fixed fields arrive as v, length-delimited fields as data.
func walkProto(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errProto
			}
			fn(num, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			fn(num, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes the gzipped pprof protobuf that
// runtime/pprof writes into stacks of function names. It reads only
// the fields stacks need: samples, locations, functions and strings.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		perr     error
	)
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	err = walkProto(raw, func(num int, _ uint64, data []byte) {
		switch num {
		case 2: // sample
			var s rawSample
			keep(walkProto(data, func(num int, v uint64, d []byte) {
				var err error
				switch num {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.vals, err = uints(s.vals, v, d)
				}
				keep(err)
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			keep(walkProto(data, func(num int, v uint64, d []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line
					keep(walkProto(d, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			keep(walkProto(data, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, fmt.Errorf("%w: sample without values", errProto)
		}
		cs := cpuSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d", errProto, idx)
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// shareBuckets are the CPU-share buckets, in report order. Each
// sample lands in exactly one; "unattributed" is what the others miss.
var shareBuckets = []string{
	"cc", "vet", "core", "vm", "pool",
	"sim.sched", "sim.cache", "sim.other",
	"alloc", "alloctrace", "obs", "workload",
	"runtime.handoff", "runtime.gc", "runtime.other", "bench",
}

// layerOfPackage maps the repository's packages to layers.
var layerOfPackage = map[string]string{
	"cc": "cc", "vet": "vet", "core": "core", "vm": "vm", "pool": "pool",
	"alloc": "alloc", "serial": "alloc", "ptmalloc": "alloc", "hoard": "alloc",
	"smartheap": "alloc", "lkmalloc": "alloc", "lfalloc": "alloc",
	"heapcore": "alloc", "mem": "alloc",
	"alloctrace": "alloctrace", "heapobsv": "obs", "obsv": "obs",
	"workload": "workload", "telemetry": "bench",
}

// simSched are the sim functions of the ready queue, thread spawn and
// baton dispatch; simCache those of the cache model.
var (
	simSched = []string{"readyHeap", "schedBefore", "enqueue", "wake", "dispatchNext", "pickMin",
		"runCentral", "(*Engine).Run", "yield", "bindWorker", "(*worker)", "shutdownWorkers",
		"(*Thread).exec", "runLoop", "(*Engine).Go", "(*Ctx).Go", "newThread"}
	simCache = []string{"(*Cache)", "lineMap", "hashLine", "newCache"}
)

// handoffFuncs are the Go runtime functions of goroutine handoff:
// channel operations, parking and the scheduler.
var handoffFuncs = map[string]bool{}

func init() {
	for _, f := range []string{
		"chansend", "chansend1", "chanrecv", "chanrecv1", "chanrecv2", "send", "recv",
		"selectgo", "selectnbsend", "selectnbrecv", "gopark", "goready", "ready", "park_m",
		"schedule", "findRunnable", "execute", "gogo", "mcall", "stopm", "startm", "wakep",
		"notesleep", "notewakeup", "futex", "futexsleep", "futexwakeup", "runqget", "runqput",
		"runqsteal", "runqgrab", "resetspinning", "goschedImpl", "gosched_m", "casgstatus",
		"usleep", "osyield", "procyield", "netpoll", "checkTimers", "goexit0", "goexit1",
		"semasleep", "semawakeup", "mPark", "handoffp", "acquirep", "releasep",
	} {
		handoffFuncs["runtime."+f] = true
	}
}

const modulePrefix = "amplify/internal/"

// bucketOf assigns a stack to a layer. Garbage collection anywhere on
// the stack is GC. Otherwise the innermost frame of the repository
// names the layer, unless goroutine handoff sits between it and the
// leaf: then the time went to switching goroutines.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") ||
			f == "runtime.scanobject" || f == "runtime._GC" {
			return "runtime.gc"
		}
	}
	runtimeSeen := false
	for _, f := range stack {
		switch {
		case handoffFuncs[f]:
			return "runtime.handoff"
		case strings.HasPrefix(f, "runtime."):
			runtimeSeen = true
		case strings.HasPrefix(f, modulePrefix):
			return layerOfFunc(f[len(modulePrefix):])
		case strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "runtime/pprof."):
			return "bench"
		}
	}
	if runtimeSeen {
		return "runtime.other"
	}
	return "unattributed"
}

// layerOfFunc maps "pkg.Func" or "pkg.(*T).Method" to its layer.
func layerOfFunc(f string) string {
	pkg, fn, _ := strings.Cut(f, ".")
	switch pkg {
	case "sim":
		for _, s := range simCache {
			if strings.Contains(fn, s) {
				return "sim.cache"
			}
		}
		for _, s := range simSched {
			if strings.Contains(fn, s) {
				return "sim.sched"
			}
		}
		return "sim.other"
	case "alloctrace":
		if strings.HasPrefix(fn, "(*Recorder)") {
			return "obs"
		}
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "unattributed"
}

// shareMetrics reports each bucket's share of the traced phase's CPU
// samples in basis points, and how many samples the buckets cover.
func shareMetrics(samples []cpuSample) []metric {
	byBucket := map[string]int64{}
	var total int64
	for _, s := range samples {
		byBucket[bucketOf(s.stack)] += s.count
		total += s.count
	}
	bp := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) * 1e4 / float64(total)
	}
	note := fmt.Sprintf("of %d CPU samples", total)
	var out []metric
	for _, b := range shareBuckets {
		name := b + ".share_bp"
		if strings.Contains(b, ".") {
			name = b + "_share_bp"
		}
		out = append(out, metric{name, bp(byBucket[b]), "bp", note})
	}
	out = append(out, metric{"trace.coverage_bp", bp(total - byBucket["unattributed"]), "bp", note})
	return out
}
