package main

import (
	"encoding/json"
	"os"

	"amplify/internal/bench"
)

// runHostBench implements -host-bench: run the host-side wall-clock
// benchmark suite (VM, scheduler) and emit the BENCH_host
// report on stdout. Unlike the simulation experiments, these numbers
// are host-dependent by design — they track how fast the simulator
// itself runs, not what it simulates.
func runHostBench() error {
	rep, err := bench.HostBench()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
