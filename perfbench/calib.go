package main

import "time"

// The host this benchmark runs on is shared, and its speed drifts with
// the load of other tenants: identical runs read up to 2x apart within
// ten minutes, CPU time per op moving in step. A run therefore measures
// the host's speed as it goes: a fixed kernel of the benchmark's own
// code runs between ops, and every host-time metric is reported as it
// would read with the kernel at calibNominal. The kernel mixes the host
// work the simulator spends its time in: goroutine handoff over
// channels, hash-map updates, and allocating and walking small linked
// objects, which the garbage collector then reclaims. A kernel without
// the allocation followed the drift less than a third as closely.

// calibNominal is the kernel's time on an unloaded 2-vCPU host.
const calibNominal = 8 * time.Millisecond

// calibEvery is how much op time passes between two kernel runs.
const calibEvery = 250 * time.Millisecond

type node struct {
	next *node
	pad  [6]uint64
}

var kernelSink int

// runKernel executes the calibration kernel once and returns its time.
func runKernel() time.Duration {
	t0 := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < 8000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong

	m := make(map[uint64]uint64, 1<<14)
	x := uint64(1)
	for i := 0; i < 120000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>50] += x
	}

	var list *node
	for i := 0; i < 40000; i++ {
		list = &node{next: list}
	}
	n := 0
	for p := list; p != nil; p = p.next {
		n++
	}
	kernelSink = v + len(m) + n
	return time.Since(t0)
}
